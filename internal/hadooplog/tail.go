package hadooplog

import (
	"io"
	"os"
	"time"
)

// Tailer follows a log file on disk, copying appended bytes into a Buffer —
// the deployment-side input path of hadoop_log_rpcd, which tails the log
// files Hadoop daemons natively write. It survives files that do not exist
// yet (waiting for them to appear), files truncated in place (reading them
// again from the start) and rename rotations (finishing the old file, then
// following the new one from its start).
type Tailer struct {
	path    string
	buf     *Buffer
	poll    time.Duration
	fromEnd bool // skip existing content on the first open

	stop chan struct{}
	done chan struct{}
}

// TailOptions tunes a Tailer.
type TailOptions struct {
	// Poll is the polling interval (default 500ms when non-positive).
	Poll time.Duration
	// FromEnd starts the tail at the file's current end instead of
	// replaying existing content — the right choice when a daemon restarts
	// against a large live log, at the cost of never serving the lines
	// written while the daemon was down. It applies only to the first open;
	// a file that is later rotated or truncated is read from its start.
	FromEnd bool
}

// NewTailer starts tailing path into buf from the beginning of the file,
// polling at the given interval (default 500ms when non-positive). Call
// Stop to end the goroutine.
func NewTailer(path string, buf *Buffer, poll time.Duration) *Tailer {
	return NewTailerOpts(path, buf, TailOptions{Poll: poll})
}

// NewTailerOpts starts tailing path into buf with explicit options. Call
// Stop to end the goroutine.
func NewTailerOpts(path string, buf *Buffer, opt TailOptions) *Tailer {
	if opt.Poll <= 0 {
		opt.Poll = 500 * time.Millisecond
	}
	t := &Tailer{
		path:    path,
		buf:     buf,
		poll:    opt.Poll,
		fromEnd: opt.FromEnd,
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	go t.run()
	return t
}

// Stop ends the tail and waits for its goroutine to exit.
func (t *Tailer) Stop() {
	close(t.stop)
	<-t.done
}

func (t *Tailer) run() {
	defer close(t.done)
	var tf tailFile
	defer tf.close()
	chunk := make([]byte, 64*1024)
	ticker := time.NewTicker(t.poll)
	defer ticker.Stop()
	for {
		select {
		case <-t.stop:
			return
		case <-ticker.C:
		}
		t.step(&tf, chunk)
	}
}

// tailFile is the descriptor a Tailer follows and its read position.
type tailFile struct {
	f      *os.File
	offset int64
	// partial: the bytes copied so far end inside a line.
	partial bool
}

func (tf *tailFile) close() {
	if tf.f != nil {
		_ = tf.f.Close()
		tf.f = nil
	}
}

// step is one poll. It copies what was appended to the open file since the
// last poll into the buffer. When the path now names another file (a rename
// rotation: log4j's DailyRollingFileAppender renames the live log and opens
// a new one under the old name), it first reads the old file to EOF — the
// writer may have appended to it up to the rename — and then follows the
// new file from offset 0. A file that was renamed away and not replaced yet
// keeps being followed until a new one appears.
func (t *Tailer) step(tf *tailFile, chunk []byte) {
	for {
		if tf.f == nil {
			f, err := os.Open(t.path)
			if err != nil {
				return // not created yet, or rotated away and not replaced
			}
			tf.f, tf.offset = f, 0
			if t.fromEnd {
				// Only the very first open skips history; rotated or
				// truncated files are new content and read in full.
				t.fromEnd = false
				if info, err := f.Stat(); err == nil {
					tf.offset = info.Size()
				}
			}
		}
		info, err := tf.f.Stat()
		if err != nil {
			tf.close()
			return
		}
		if info.Size() < tf.offset {
			// Truncated in place (copytruncate rotation): start over.
			t.endLine(tf)
			tf.offset = 0
		}
		// Stat the path before draining: whatever the writer appended to the
		// open file before a rename is then in the drain below.
		cur, pathErr := os.Stat(t.path)
		if !t.drain(tf, chunk) {
			return
		}
		if pathErr != nil || os.SameFile(info, cur) {
			return
		}
		t.endLine(tf)
		tf.close()
	}
}

// drain copies the open file from the read position to EOF into the
// buffer. On a read error it closes the file and reports false.
func (t *Tailer) drain(tf *tailFile, chunk []byte) bool {
	for {
		n, err := tf.f.ReadAt(chunk, tf.offset)
		if n > 0 {
			tf.offset += int64(n)
			tf.partial = chunk[n-1] != '\n'
			_, _ = t.buf.Write(chunk[:n])
		}
		if err == io.EOF || (err == nil && n == 0) {
			return true
		}
		if err != nil {
			tf.close()
			return false
		}
	}
}

// endLine ends an unterminated last line before the tail moves to other
// content, so it is never joined to that content's first line.
func (t *Tailer) endLine(tf *tailFile) {
	if tf.partial {
		_, _ = t.buf.Write([]byte{'\n'})
		tf.partial = false
	}
}
