package rpc

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/asdf-project/asdf/internal/telemetry"
)

// Caller is the call surface shared by Client and ManagedClient, letting the
// collection modules work against either a raw connection or a supervised
// one.
type Caller interface {
	Call(method string, params, result any) error
	Close() error
}

var (
	_ Caller = (*Client)(nil)
	_ Caller = (*ManagedClient)(nil)
)

// ErrBreakerOpen is returned (wrapped) by ManagedClient.Call while the
// node's circuit breaker is open: the call fails fast without touching the
// network.
var ErrBreakerOpen = errors.New("rpc: circuit breaker open")

// BreakerState is the circuit-breaker state of a managed connection.
type BreakerState int

// Circuit breaker states. A breaker starts Closed (calls flow); after
// Options.BreakerThreshold consecutive transport failures it trips to Open
// (calls fail fast); after Options.BreakerCooldown it moves to HalfOpen and
// lets a single probe call through — success re-closes it, failure re-opens
// it.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String names the state for logs and health endpoints.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int(s))
	}
}

// MarshalJSON renders the state as its string form, so Health snapshots
// read naturally on the status endpoint.
func (s BreakerState) MarshalJSON() ([]byte, error) {
	return []byte(`"` + s.String() + `"`), nil
}

// UnmarshalJSON parses the string form written by MarshalJSON, so Health
// snapshots round-trip over the status RPC.
func (s *BreakerState) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"closed"`:
		*s = BreakerClosed
	case `"open"`:
		*s = BreakerOpen
	case `"half-open"`:
		*s = BreakerHalfOpen
	default:
		return fmt.Errorf("rpc: unknown breaker state %s", b)
	}
	return nil
}

// Options tunes a ManagedClient. The zero value selects the defaults noted
// on each field.
type Options struct {
	// CallTimeout is the per-call deadline (default 10s).
	CallTimeout time.Duration
	// ReconnectBackoff is the initial delay between reconnect attempts;
	// it doubles per consecutive failure, with jitter (default 100ms).
	ReconnectBackoff time.Duration
	// MaxBackoff caps the reconnect delay (default 10s).
	MaxBackoff time.Duration
	// BreakerThreshold is the number of consecutive transport failures
	// that trips the breaker open (default 5).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before letting a
	// half-open probe through (default 2s).
	BreakerCooldown time.Duration

	// Clock supplies "now" for backoff and cooldown bookkeeping; defaults
	// to time.Now. The simulation harness injects virtual time so breaker
	// timing composes with virtual-clock test runs.
	Clock func() time.Time
	// Rand supplies jitter in [0,1); defaults to math/rand. Tests inject
	// a constant for determinism.
	Rand func() float64
	// Dial opens the underlying connection; defaults to Dial. Tests
	// inject failing or counting dialers.
	Dial func(addr, clientName string, opts ...DialOption) (*Client, error)

	// Metrics, when non-nil, registers per-connection telemetry labeled by
	// the daemon address: call counts and latency, transport failures,
	// reconnects, and a breaker-state gauge. Two managed clients
	// supervising the same address share series (registration is
	// idempotent), which only matters for degenerate configurations that
	// point two instances at one daemon.
	Metrics *telemetry.Registry
}

func (o Options) withDefaults() Options {
	if o.CallTimeout <= 0 {
		o.CallTimeout = 10 * time.Second
	}
	if o.ReconnectBackoff <= 0 {
		o.ReconnectBackoff = 100 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 10 * time.Second
	}
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 5
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 2 * time.Second
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	if o.Rand == nil {
		o.Rand = rand.Float64
	}
	if o.Dial == nil {
		o.Dial = Dial
	}
	return o
}

// Health is a point-in-time snapshot of a managed connection, suitable for
// logs, tests, and a future metrics endpoint.
type Health struct {
	// Addr is the remote daemon address.
	Addr string
	// State is the breaker state at snapshot time.
	State BreakerState
	// Connected reports whether a live connection is held.
	Connected bool
	// ConsecutiveFailures counts transport failures since the last
	// success.
	ConsecutiveFailures int
	// TotalFailures counts all transport failures over the client's life.
	TotalFailures uint64
	// Reconnects counts successful dials (the first connect included).
	Reconnects uint64
	// LastError is the most recent transport error, empty if none.
	LastError string
	// LastErrorAt is when LastError happened.
	LastErrorAt time.Time
	// StateChangedAt is when State was last entered.
	StateChangedAt time.Time
	// BytesSent and BytesReceived are exact wire bytes across every
	// connection this client has opened, closed connections included —
	// the live view of the Table 4 bandwidth accounting.
	BytesSent     uint64
	BytesReceived uint64
}

// ManagedClient supervises one node's RPC connection: it dials lazily,
// reconnects after transport failures with exponential backoff plus jitter,
// and trips a per-node circuit breaker after repeated failures so a dead
// node costs an error return, not a network timeout, on every collection
// iteration. The zero value is not usable; create with NewManagedClient.
//
// Remote handler errors (RemoteError) prove the node is alive and do not
// count as failures. Calls are serialized, matching Client's semantics.
type ManagedClient struct {
	addr string
	name string
	opt  Options

	mu         sync.Mutex
	client     *Client
	closed     bool
	state      BreakerState
	stateSince time.Time
	cooldownAt time.Time // open state: when a half-open probe is allowed
	fails      int       // consecutive transport failures
	totalFails uint64
	reconnects uint64
	lastErr    error
	lastErrAt  time.Time
	backoff    time.Duration // next reconnect delay
	nextDialAt time.Time     // no dialing before this instant

	// accumulated wire bytes of connections already closed
	closedSent, closedRecv uint64
	// live-connection bytes already flushed into the wire-byte counters
	flushedSent, flushedRecv uint64

	// Telemetry handles (nil without Options.Metrics; nil-safe). The
	// counters move at exactly the points the fields above change, so a
	// scrape agrees with Health() on a quiescent client.
	mCalls       *telemetry.Counter
	mFails       *telemetry.Counter
	mReconnects  *telemetry.Counter
	mWireSent    *telemetry.Counter
	mWireRecv    *telemetry.Counter
	mBreaker     *telemetry.Gauge
	mCallSeconds *telemetry.Histogram
}

// NewManagedClient supervises the daemon at addr. No connection is opened
// until the first Call, so construction never fails and a daemon that is
// down at start-up is simply retried by the caller's normal schedule.
func NewManagedClient(addr, clientName string, opt Options) *ManagedClient {
	o := opt.withDefaults()
	m := &ManagedClient{
		addr:       addr,
		name:       clientName,
		opt:        o,
		state:      BreakerClosed,
		stateSince: o.Clock(),
		backoff:    o.ReconnectBackoff,
	}
	if reg := o.Metrics; reg != nil {
		al := telemetry.L("addr", addr)
		m.mCalls = reg.Counter("asdf_rpc_calls_total",
			"Calls attempted on a managed connection, breaker fast-fails included.", al)
		m.mFails = reg.Counter("asdf_rpc_transport_failures_total",
			"Transport failures (dial or call) on a managed connection.", al)
		m.mReconnects = reg.Counter("asdf_rpc_reconnects_total",
			"Successful dials, the first connect included.", al)
		m.mWireSent = reg.Counter("asdf_rpc_wire_bytes_sent_total",
			"Exact wire bytes sent on a managed connection, reconnects included.", al)
		m.mWireRecv = reg.Counter("asdf_rpc_wire_bytes_received_total",
			"Exact wire bytes received on a managed connection, reconnects included.", al)
		m.mBreaker = reg.Gauge("asdf_rpc_breaker_state",
			"Circuit-breaker state: 0 closed, 1 open, 2 half-open.", al)
		m.mCallSeconds = reg.Histogram("asdf_rpc_call_seconds",
			"Wall-clock latency of calls that reached the network.", nil, al)
	}
	return m
}

// Addr returns the remote address this client supervises.
func (m *ManagedClient) Addr() string { return m.addr }

// Call invokes method on the managed connection, dialing or reconnecting as
// needed. While the breaker is open it fails fast with an error wrapping
// ErrBreakerOpen. Transport failures close the connection; the next call
// redials once its backoff delay has elapsed.
func (m *ManagedClient) Call(method string, params, result any) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.do(tripFunc(func(c *Client) error { return c.Call(method, params, result) }))
}

// roundTripper is one exchange on the live connection. The per-tick stream
// exchanges are methods of StreamClient and ManagedSubscription, so handing
// one to do allocates nothing; one-off calls wrap a closure in tripFunc.
type roundTripper interface {
	roundTrip(c *Client) error
}

type tripFunc func(*Client) error

func (f tripFunc) roundTrip(c *Client) error { return f(c) }

// do runs one supervised round trip: breaker gate, lazy dial under backoff,
// the exchange itself, then success/failure accounting. The caller must hold
// m.mu.
func (m *ManagedClient) do(call roundTripper) error {
	if m.closed {
		return ErrClosed
	}
	m.mCalls.Inc()
	now := m.opt.Clock()

	if m.state == BreakerOpen {
		if now.Before(m.cooldownAt) {
			return fmt.Errorf("%w: node %s (%d consecutive failures, last: %v)",
				ErrBreakerOpen, m.addr, m.fails, m.lastErr)
		}
		// Cooldown over: let this call through as the half-open probe.
		m.toState(BreakerHalfOpen, now)
		m.nextDialAt = time.Time{}
	}

	if m.client == nil {
		if now.Before(m.nextDialAt) {
			// Inside the reconnect backoff window: fail fast without
			// hammering the network. Not counted as a new failure.
			return fmt.Errorf("rpc: node %s reconnect pending (retry at %s, last: %v)",
				m.addr, m.nextDialAt.Format(time.RFC3339Nano), m.lastErr)
		}
		c, err := m.opt.Dial(m.addr, m.name, WithCallTimeout(m.opt.CallTimeout))
		if err != nil {
			m.onFailure(now, err)
			return fmt.Errorf("rpc: node %s unreachable: %w", m.addr, err)
		}
		m.client = c
		m.flushedSent, m.flushedRecv = 0, 0
		m.reconnects++
		m.mReconnects.Inc()
	}

	var err error
	if m.mCallSeconds != nil {
		// Latency is wall-clock even under an injected virtual Clock: the
		// histogram reports real network time, not simulated time.
		start := time.Now()
		err = call.roundTrip(m.client)
		m.mCallSeconds.Observe(time.Since(start).Seconds())
	} else {
		err = call.roundTrip(m.client)
	}
	m.flushWireBytes()
	if err == nil || isRemoteError(err) {
		// The node answered: transport is healthy even if the handler
		// returned an application error.
		m.onSuccess(now)
		return err
	}

	// Transport failure: drop the connection so the next call redials.
	s, r := m.client.Stats()
	m.closedSent += s
	m.closedRecv += r
	_ = m.client.Close()
	m.client = nil
	m.onFailure(now, err)
	return fmt.Errorf("rpc: node %s: %w", m.addr, err)
}

// isRemoteError keeps errors.As's escaping target off the success path.
func isRemoteError(err error) bool {
	var remote *RemoteError
	return errors.As(err, &remote)
}

// flushWireBytes moves the live connection's not-yet-counted wire bytes into
// the per-addr telemetry counters. Called after every round trip (and on
// Close) so scraped totals track Stats to within one in-flight call. The
// caller must hold m.mu.
func (m *ManagedClient) flushWireBytes() {
	if m.client == nil {
		return
	}
	s, r := m.client.Stats()
	m.mWireSent.Add(s - m.flushedSent)
	m.mWireRecv.Add(r - m.flushedRecv)
	m.flushedSent, m.flushedRecv = s, r
}

// onSuccess resets failure bookkeeping and re-closes the breaker.
func (m *ManagedClient) onSuccess(now time.Time) {
	m.fails = 0
	m.backoff = m.opt.ReconnectBackoff
	m.nextDialAt = time.Time{}
	if m.state != BreakerClosed {
		m.toState(BreakerClosed, now)
	}
}

// onFailure records a transport failure, schedules the next reconnect with
// exponential backoff plus jitter, and trips the breaker when warranted.
func (m *ManagedClient) onFailure(now time.Time, err error) {
	m.fails++
	m.totalFails++
	m.mFails.Inc()
	m.lastErr = err
	m.lastErrAt = now

	// Full jitter on the current backoff: delay in [backoff/2, backoff].
	delay := m.backoff/2 + time.Duration(m.opt.Rand()*float64(m.backoff/2))
	m.nextDialAt = now.Add(delay)
	m.backoff *= 2
	if m.backoff > m.opt.MaxBackoff {
		m.backoff = m.opt.MaxBackoff
	}

	switch {
	case m.state == BreakerHalfOpen:
		// Failed probe: back to open for another cooldown.
		m.toState(BreakerOpen, now)
		m.cooldownAt = now.Add(m.opt.BreakerCooldown)
	case m.state == BreakerClosed && m.fails >= m.opt.BreakerThreshold:
		m.toState(BreakerOpen, now)
		m.cooldownAt = now.Add(m.opt.BreakerCooldown)
	}
}

func (m *ManagedClient) toState(s BreakerState, now time.Time) {
	m.state = s
	m.stateSince = now
	m.mBreaker.Set(float64(s))
}

// Health returns a point-in-time snapshot of the connection.
func (m *ManagedClient) Health() Health {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := Health{
		Addr:                m.addr,
		State:               m.state,
		Connected:           m.client != nil,
		ConsecutiveFailures: m.fails,
		TotalFailures:       m.totalFails,
		Reconnects:          m.reconnects,
		LastErrorAt:         m.lastErrAt,
		StateChangedAt:      m.stateSince,
	}
	if m.lastErr != nil {
		h.LastError = m.lastErr.Error()
	}
	h.BytesSent, h.BytesReceived = m.closedSent, m.closedRecv
	if m.client != nil {
		s, r := m.client.Stats()
		h.BytesSent += s
		h.BytesReceived += r
	}
	return h
}

// Stats reports wire bytes across every connection this client has opened,
// closed connections included, preserving the Table 4 bandwidth accounting
// under reconnects.
func (m *ManagedClient) Stats() (bytesSent, bytesReceived uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	bytesSent, bytesReceived = m.closedSent, m.closedRecv
	if m.client != nil {
		s, r := m.client.Stats()
		bytesSent += s
		bytesReceived += r
	}
	return bytesSent, bytesReceived
}

// Close tears down the connection, if any. Subsequent calls return
// ErrClosed.
func (m *ManagedClient) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	if m.client != nil {
		m.flushWireBytes()
		err := m.client.Close()
		m.client = nil
		return err
	}
	return nil
}
