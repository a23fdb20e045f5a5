package hadooplog

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"
)

func waitLines(t *testing.T, buf *Buffer, want int) []string {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		lines, _ := buf.ReadFrom(0)
		if len(lines) >= want {
			return lines
		}
		if time.Now().After(deadline) {
			t.Fatalf("buffer has %d lines, want %d", len(lines), want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestTailerFollowsAppends(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tt.log")
	if err := os.WriteFile(path, []byte("line1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	buf := NewBuffer(0)
	tail := NewTailer(path, buf, 10*time.Millisecond)
	defer tail.Stop()

	waitLines(t, buf, 1)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(f, "line2")
	fmt.Fprintln(f, "line3")
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	lines := waitLines(t, buf, 3)
	if lines[0] != "line1" || lines[1] != "line2" || lines[2] != "line3" {
		t.Errorf("lines = %v", lines)
	}
}

func TestTailerWaitsForCreation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "late.log")
	buf := NewBuffer(0)
	tail := NewTailer(path, buf, 10*time.Millisecond)
	defer tail.Stop()

	time.Sleep(50 * time.Millisecond)
	if buf.Len() != 0 {
		t.Fatal("buffer should be empty before the file exists")
	}
	if err := os.WriteFile(path, []byte("born\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	lines := waitLines(t, buf, 1)
	if lines[0] != "born" {
		t.Errorf("lines = %v", lines)
	}
}

func TestTailerHandlesTruncation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "rot.log")
	if err := os.WriteFile(path, []byte("old1\nold2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	buf := NewBuffer(0)
	tail := NewTailer(path, buf, 10*time.Millisecond)
	defer tail.Stop()
	waitLines(t, buf, 2)

	// Truncate (log rotation copytruncate-style) and write fresh content.
	if err := os.WriteFile(path, []byte("new1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	lines := waitLines(t, buf, 3)
	if lines[2] != "new1" {
		t.Errorf("post-truncation line = %q", lines[2])
	}
}

func TestTailerFromEndSkipsHistory(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "big.log")
	if err := os.WriteFile(path, []byte("old1\nold2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	buf := NewBuffer(0)
	tail := NewTailerOpts(path, buf, TailOptions{Poll: 10 * time.Millisecond, FromEnd: true})
	defer tail.Stop()

	time.Sleep(50 * time.Millisecond)
	if buf.Len() != 0 {
		lines, _ := buf.ReadFrom(0)
		t.Fatalf("from-end tail replayed history: %v", lines)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(f, "fresh")
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	lines := waitLines(t, buf, 1)
	if lines[0] != "fresh" {
		t.Errorf("lines = %v", lines)
	}

	// Truncation after the first open is new content: read from the start.
	if err := os.WriteFile(path, []byte("rotated\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	lines = waitLines(t, buf, 2)
	if lines[1] != "rotated" {
		t.Errorf("post-truncation line = %q", lines[1])
	}
}

func TestTailerStopIsPrompt(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.log")
	if err := os.WriteFile(path, []byte("a\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	buf := NewBuffer(0)
	tail := NewTailer(path, buf, 10*time.Millisecond)
	done := make(chan struct{})
	go func() {
		tail.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop did not return")
	}
}

// TestTailerFollowsRenameRotation rotates the log the way log4j's
// DailyRollingFileAppender does — rename the live file, open a new one under
// the old name — and expects the tail to follow the new file.
func TestTailerFollowsRenameRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tt.log")
	if err := os.WriteFile(path, []byte("line1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	buf := NewBuffer(0)
	tail := NewTailer(path, buf, 10*time.Millisecond)
	defer tail.Stop()
	waitLines(t, buf, 1)

	if err := os.Rename(path, path+".1"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("line2\nline3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	lines := waitLines(t, buf, 3)
	if want := []string{"line1", "line2", "line3"}; !slices.Equal(lines, want) {
		t.Errorf("lines = %q, want %q", lines, want)
	}
}

// TestTailerRotationEndsPartialLine rotates while the old file ends inside a
// line: the fragment becomes a line of its own, never the head of the new
// file's first line.
func TestTailerRotationEndsPartialLine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tt.log")
	if err := os.WriteFile(path, []byte("line1\npart"), 0o644); err != nil {
		t.Fatal(err)
	}
	buf := NewBuffer(0)
	tl := &Tailer{path: path, buf: buf}
	var tf tailFile
	defer tf.close()
	chunk := make([]byte, 4) // several reads per drain
	tl.step(&tf, chunk)
	if lines, _ := buf.ReadFrom(0); !slices.Equal(lines, []string{"line1"}) {
		t.Fatalf("before rotation: lines = %q", lines)
	}
	if err := os.Rename(path, path+".1"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("line2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tl.step(&tf, chunk)
	lines, _ := buf.ReadFrom(0)
	if want := []string{"line1", "part", "line2"}; !slices.Equal(lines, want) {
		t.Errorf("lines = %q, want %q", lines, want)
	}
}

// TestTailerTwoRotationsInOnePoll rotates twice between two polls. The old
// file is read to its end, including what was appended before the first
// rename, and the tail then follows the file the path names now. The middle
// file never sat under the path at a poll, so it is not read.
func TestTailerTwoRotationsInOnePoll(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tt.log")
	if err := os.WriteFile(path, []byte("a1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	buf := NewBuffer(0)
	tl := &Tailer{path: path, buf: buf}
	var tf tailFile
	defer tf.close()
	chunk := make([]byte, 64)
	tl.step(&tf, chunk)

	appendLine(t, path, "a2")
	if err := os.Rename(path, path+".1"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("b1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(path, path+".2"); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("c1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tl.step(&tf, chunk)
	appendLine(t, path, "c2")
	tl.step(&tf, chunk)
	lines, _ := buf.ReadFrom(0)
	if want := []string{"a1", "a2", "c1", "c2"}; !slices.Equal(lines, want) {
		t.Errorf("lines = %q, want %q", lines, want)
	}
}

// TestTailerRotatedFileNeverReappears renames the log away with no new file
// behind it: the tail keeps following the renamed file, which its writer may
// still hold open, and moves to a new file once one appears.
func TestTailerRotatedFileNeverReappears(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tt.log")
	w, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	buf := NewBuffer(0)
	tl := &Tailer{path: path, buf: buf}
	var tf tailFile
	defer tf.close()
	chunk := make([]byte, 64)

	fmt.Fprintln(w, "a1")
	tl.step(&tf, chunk)
	if err := os.Rename(path, path+".1"); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(w, "a2")
	for i := 0; i < 3; i++ {
		tl.step(&tf, chunk)
	}
	fmt.Fprintln(w, "a3")
	tl.step(&tf, chunk)
	if lines, _ := buf.ReadFrom(0); !slices.Equal(lines, []string{"a1", "a2", "a3"}) {
		t.Fatalf("while the path is missing: lines = %q", lines)
	}
	if err := os.WriteFile(path, []byte("n1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	tl.step(&tf, chunk)
	lines, _ := buf.ReadFrom(0)
	if want := []string{"a1", "a2", "a3", "n1"}; !slices.Equal(lines, want) {
		t.Errorf("lines = %q, want %q", lines, want)
	}
}

func appendLine(t *testing.T, path, line string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(f, line)
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
