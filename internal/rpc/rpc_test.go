package rpc

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

type echoParams struct {
	Text string `json:"text"`
}

func newTestServer(t *testing.T) (*Server, string) {
	t.Helper()
	srv := NewServer("test-service")
	srv.Handle("echo", func(params json.RawMessage) (any, error) {
		var p echoParams
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, err
		}
		return p, nil
	})
	srv.Handle("add", func(params json.RawMessage) (any, error) {
		var nums []int
		if err := json.Unmarshal(params, &nums); err != nil {
			return nil, err
		}
		sum := 0
		for _, n := range nums {
			sum += n
		}
		return sum, nil
	})
	srv.Handle("fail", func(json.RawMessage) (any, error) {
		return nil, errors.New("deliberate failure")
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, addr.String()
}

func TestCallRoundTrip(t *testing.T) {
	_, addr := newTestServer(t)
	c, err := Dial(addr, "test-client")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	var out echoParams
	if err := c.Call("echo", echoParams{Text: "hello"}, &out); err != nil {
		t.Fatal(err)
	}
	if out.Text != "hello" {
		t.Errorf("echo = %q", out.Text)
	}

	var sum int
	if err := c.Call("add", []int{1, 2, 3}, &sum); err != nil {
		t.Fatal(err)
	}
	if sum != 6 {
		t.Errorf("add = %d, want 6", sum)
	}
}

func TestHelloExchange(t *testing.T) {
	_, addr := newTestServer(t)
	c, err := Dial(addr, "test-client")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if c.Service != "test-service" {
		t.Errorf("Service = %q", c.Service)
	}
	sort.Strings(c.Methods)
	want := []string{"add", "echo", "fail"}
	if len(c.Methods) != len(want) {
		t.Fatalf("Methods = %v", c.Methods)
	}
	for i := range want {
		if c.Methods[i] != want[i] {
			t.Errorf("Methods[%d] = %q, want %q", i, c.Methods[i], want[i])
		}
	}
}

func TestRemoteError(t *testing.T) {
	_, addr := newTestServer(t)
	c, err := Dial(addr, "test-client")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	err = c.Call("fail", nil, nil)
	var remote *RemoteError
	if !errors.As(err, &remote) {
		t.Fatalf("error = %v, want RemoteError", err)
	}
	if remote.Method != "fail" || !strings.Contains(remote.Message, "deliberate") {
		t.Errorf("remote = %+v", remote)
	}
}

func TestUnknownMethod(t *testing.T) {
	_, addr := newTestServer(t)
	c, err := Dial(addr, "test-client")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	err = c.Call("nonexistent", nil, nil)
	var remote *RemoteError
	if !errors.As(err, &remote) || !strings.Contains(remote.Message, "unknown method") {
		t.Errorf("error = %v, want unknown-method RemoteError", err)
	}
}

func TestByteAccounting(t *testing.T) {
	_, addr := newTestServer(t)
	c, err := Dial(addr, "test-client")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	sent0, recv0 := c.Stats()
	if sent0 == 0 || recv0 == 0 {
		t.Errorf("hello exchange should produce traffic: sent=%d recv=%d", sent0, recv0)
	}
	var out echoParams
	if err := c.Call("echo", echoParams{Text: strings.Repeat("x", 100)}, &out); err != nil {
		t.Fatal(err)
	}
	sent1, recv1 := c.Stats()
	if sent1 <= sent0 || recv1 <= recv0 {
		t.Errorf("call should increase both counters: %d->%d, %d->%d", sent0, sent1, recv0, recv1)
	}
	// The echo payload is ~100 bytes; per-call overhead should be modest.
	if sent1-sent0 > 400 {
		t.Errorf("per-call sent bytes = %d, expected < 400", sent1-sent0)
	}
}

func TestServerStatsAfterClose(t *testing.T) {
	srv, addr := newTestServer(t)
	c, err := Dial(addr, "test-client")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Call("echo", echoParams{Text: "hi"}, nil); err != nil {
		t.Fatal(err)
	}
	_ = c.Close()
	// Server flushes connection byte counts when the connection closes.
	deadline := time.Now().Add(2 * time.Second)
	for {
		r, w := srv.Stats()
		if r > 0 && w > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server stats never updated: read=%d written=%d", r, w)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestConcurrentCalls(t *testing.T) {
	_, addr := newTestServer(t)
	c, err := Dial(addr, "test-client")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()

	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var sum int
			if err := c.Call("add", []int{i, i}, &sum); err != nil {
				errs <- err
				return
			}
			if sum != 2*i {
				errs <- fmt.Errorf("add(%d,%d) = %d", i, i, sum)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestMultipleClients(t *testing.T) {
	_, addr := newTestServer(t)
	for i := 0; i < 5; i++ {
		c, err := Dial(addr, fmt.Sprintf("client-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		var out echoParams
		if err := c.Call("echo", echoParams{Text: "m"}, &out); err != nil {
			t.Error(err)
		}
		_ = c.Close()
	}
}

func TestCallAfterClose(t *testing.T) {
	_, addr := newTestServer(t)
	c, err := Dial(addr, "test-client")
	if err != nil {
		t.Fatal(err)
	}
	_ = c.Close()
	if err := c.Call("echo", echoParams{}, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Call after Close = %v, want ErrClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("double Close = %v, want nil", err)
	}
}

func TestServerCloseDisconnectsClients(t *testing.T) {
	srv, addr := newTestServer(t)
	c, err := Dial(addr, "test-client")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Call("echo", echoParams{}, nil); err == nil {
		t.Error("call against closed server should fail")
	}
}

func TestDialBadAddress(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", "c", WithCallTimeout(100*time.Millisecond)); err == nil {
		t.Error("dial to closed port should fail")
	}
}

func TestProtocolMismatch(t *testing.T) {
	// A raw server that answers hello with the wrong protocol version.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l.Close() }()
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer func() { _ = conn.Close() }()
		var hello helloRequest
		fr := frameReader{r: conn}
		if err := fr.readJSON(&hello); err != nil {
			return
		}
		_ = writeJSONFrame(conn, helloResponse{Proto: 99, Service: "bogus"})
	}()
	if _, err := Dial(l.Addr().String(), "c"); err == nil || !strings.Contains(err.Error(), "protocol") {
		t.Errorf("Dial = %v, want protocol error", err)
	}
}

func TestHandleValidation(t *testing.T) {
	srv := NewServer("s")
	srv.Handle("m", func(json.RawMessage) (any, error) { return nil, nil })
	for _, fn := range []func(){
		func() { srv.Handle("m", func(json.RawMessage) (any, error) { return nil, nil }) },
		func() { srv.Handle("", func(json.RawMessage) (any, error) { return nil, nil }) },
		func() { srv.Handle("x", nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestLargePayload(t *testing.T) {
	_, addr := newTestServer(t)
	c, err := Dial(addr, "test-client")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	big := strings.Repeat("payload ", 64*1024) // ~512 kB
	var out echoParams
	if err := c.Call("echo", echoParams{Text: big}, &out); err != nil {
		t.Fatal(err)
	}
	if out.Text != big {
		t.Error("large payload corrupted in transit")
	}
}

func TestCallTimeout(t *testing.T) {
	srv := NewServer("slow")
	srv.Handle("sleep", func(json.RawMessage) (any, error) {
		time.Sleep(2 * time.Second)
		return nil, nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()
	c, err := Dial(addr.String(), "c", WithCallTimeout(100*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	start := time.Now()
	if err := c.Call("sleep", nil, nil); err == nil {
		t.Error("slow call should time out")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Errorf("timeout took %v, want ~100ms", elapsed)
	}
}
