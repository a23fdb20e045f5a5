// Package config parses fpt-core configuration files.
//
// The format follows the paper (§3.4): a module instance is declared by the
// module name in square brackets, followed by parameter assignments. The
// instance id is set with `id = instance-id`; inputs are wired with
// `input[name] = instance-id.outputname` (a single output) or
// `input[name] = @instance-id` (all outputs of that instance). Every other
// assignment is kept as an instance parameter for the module's own
// interpretation. Lines beginning with '#' or ';' are comments.
package config

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"
)

// InputRef identifies the source of a module input.
type InputRef struct {
	// Name is the input name, i.e. the key inside input[...].
	Name string
	// Instance is the id of the upstream module instance.
	Instance string
	// Output is the upstream output name; empty means "all outputs"
	// (the `@instance` form).
	Output string
	// All reports whether the reference used the `@instance` form.
	All bool
}

// String renders the reference in configuration syntax.
func (r InputRef) String() string {
	if r.All {
		return "@" + r.Instance
	}
	return r.Instance + "." + r.Output
}

// Instance is one module instantiation from a configuration file.
type Instance struct {
	// Module is the module (section) name, e.g. "mavgvec".
	Module string
	// ID is the instance id; defaults to the module name when the file
	// contains a single unnamed instance of the module.
	ID string
	// Params holds all assignments other than id and input[...].
	Params map[string]string
	// Inputs holds the declared input wiring, in file order.
	Inputs []InputRef
	// Line is the 1-based line number of the section header,
	// for error reporting.
	Line int
}

// Param returns the named parameter and whether it was present.
func (in *Instance) Param(key string) (string, bool) {
	v, ok := in.Params[key]
	return v, ok
}

// StringParam returns the named parameter or def when absent.
func (in *Instance) StringParam(key, def string) string {
	if v, ok := in.Params[key]; ok {
		return v
	}
	return def
}

// IntParam returns the named parameter parsed as an int, or def when absent.
func (in *Instance) IntParam(key string, def int) (int, error) {
	v, ok := in.Params[key]
	if !ok {
		return def, nil
	}
	n, err := strconv.Atoi(strings.TrimSpace(v))
	if err != nil {
		return 0, fmt.Errorf("config: instance %q: parameter %q: %w", in.ID, key, err)
	}
	return n, nil
}

// FloatParam returns the named parameter parsed as a float64, or def when absent.
func (in *Instance) FloatParam(key string, def float64) (float64, error) {
	v, ok := in.Params[key]
	if !ok {
		return def, nil
	}
	f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
	if err != nil {
		return 0, fmt.Errorf("config: instance %q: parameter %q: %w", in.ID, key, err)
	}
	return f, nil
}

// BoolParam returns the named parameter parsed as a bool, or def when absent.
func (in *Instance) BoolParam(key string, def bool) (bool, error) {
	v, ok := in.Params[key]
	if !ok {
		return def, nil
	}
	b, err := strconv.ParseBool(strings.TrimSpace(v))
	if err != nil {
		return false, fmt.Errorf("config: instance %q: parameter %q: %w", in.ID, key, err)
	}
	return b, nil
}

// DurationParam returns the named parameter parsed as a time.Duration
// (e.g. "500ms", "1s"), or def when absent. A bare number is seconds.
func (in *Instance) DurationParam(key string, def time.Duration) (time.Duration, error) {
	v, ok := in.Params[key]
	if !ok {
		return def, nil
	}
	v = strings.TrimSpace(v)
	if secs, err := strconv.ParseFloat(v, 64); err == nil {
		return time.Duration(secs * float64(time.Second)), nil
	}
	d, err := time.ParseDuration(v)
	if err != nil {
		return 0, fmt.Errorf("config: instance %q: parameter %q: %w", in.ID, key, err)
	}
	return d, nil
}

// ResilienceParams are the collection-plane fault-tolerance knobs shared by
// the rpc-mode data-collection modules (sadc, hadoop_log). A zero value
// means "not set": the module falls back to its environment-level defaults.
type ResilienceParams struct {
	// ReconnectBackoff is the initial delay between reconnect attempts to
	// a dead collection daemon (doubles per failure, jittered).
	ReconnectBackoff time.Duration
	// CallTimeout is the per-RPC deadline.
	CallTimeout time.Duration
	// BreakerThreshold is the number of consecutive transport failures
	// after which the node's circuit breaker opens.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before allowing a
	// half-open probe.
	BreakerCooldown time.Duration
	// SyncDeadline is the straggler deadline for cross-node timestamp
	// synchronization: a timestamp older than this is published from the
	// nodes that did report instead of waiting forever (0 = strict §3.7
	// behaviour: wait until every node reveals the timestamp).
	SyncDeadline time.Duration
	// SyncQuorum is the minimum number of nodes that must have reported a
	// timestamp for a degraded (partial) publish (0 = all nodes).
	SyncQuorum int
	// SyncQuorumAuto is set by `sync_quorum = auto`: the effective quorum
	// is derived at runtime from the observed open-breaker fraction
	// (adaptive controller) instead of a static count.
	SyncQuorumAuto bool
}

// ResilienceParams parses the well-known fault-tolerance parameters
// (reconnect_backoff, call_timeout, breaker_threshold, breaker_cooldown,
// sync_deadline, sync_quorum) from the instance. Absent parameters stay
// zero.
func (in *Instance) ResilienceParams() (ResilienceParams, error) {
	var p ResilienceParams
	var err error
	if p.ReconnectBackoff, err = in.DurationParam("reconnect_backoff", 0); err != nil {
		return p, err
	}
	if p.CallTimeout, err = in.DurationParam("call_timeout", 0); err != nil {
		return p, err
	}
	if p.BreakerThreshold, err = in.IntParam("breaker_threshold", 0); err != nil {
		return p, err
	}
	if p.BreakerCooldown, err = in.DurationParam("breaker_cooldown", 0); err != nil {
		return p, err
	}
	if p.SyncDeadline, err = in.DurationParam("sync_deadline", 0); err != nil {
		return p, err
	}
	if in.StringParam("sync_quorum", "") == "auto" {
		p.SyncQuorumAuto = true
	} else if p.SyncQuorum, err = in.IntParam("sync_quorum", 0); err != nil {
		return p, err
	}
	if p.BreakerThreshold < 0 {
		return p, fmt.Errorf("config: instance %q: breaker_threshold must be >= 0", in.ID)
	}
	if p.SyncQuorum < 0 {
		return p, fmt.Errorf("config: instance %q: sync_quorum must be >= 0", in.ID)
	}
	return p, nil
}

// SupervisorParams are the per-instance supervised-runtime knobs read by
// the engine core (not by the module itself). Zero values mean "not set":
// the engine falls back to its option-level defaults — except
// QuarantineThreshold, where -1 means unset so an explicit 0 can disable
// quarantine for one instance while the engine default enables it.
type SupervisorParams struct {
	// RunTimeout is the watchdog deadline for one Run call (0 = engine
	// default; the engine's default of 0 disables the watchdog).
	RunTimeout time.Duration
	// QuarantineThreshold is the number of consecutive failures (error,
	// panic, or timeout) after which the instance is quarantined
	// (-1 = engine default, 0 = disabled for this instance).
	QuarantineThreshold int
	// QuarantineCooldown is how long a quarantined instance waits before
	// its half-open re-probe (0 = engine default).
	QuarantineCooldown time.Duration
	// Degrade is the gap-fill policy for a quarantined instance's
	// outputs: "skip", "hold", "zero", or "auto" ("" = engine default).
	Degrade string
}

// SupervisorParams parses the supervised-runtime parameters (run_timeout,
// quarantine_threshold, quarantine_cooldown, degrade) from the instance.
func (in *Instance) SupervisorParams() (SupervisorParams, error) {
	p := SupervisorParams{QuarantineThreshold: -1}
	var err error
	if p.RunTimeout, err = in.DurationParam("run_timeout", 0); err != nil {
		return p, err
	}
	if p.QuarantineThreshold, err = in.IntParam("quarantine_threshold", -1); err != nil {
		return p, err
	}
	if p.QuarantineCooldown, err = in.DurationParam("quarantine_cooldown", 0); err != nil {
		return p, err
	}
	p.Degrade = in.StringParam("degrade", "")
	if p.RunTimeout < 0 {
		return p, fmt.Errorf("config: instance %q: run_timeout must be >= 0", in.ID)
	}
	if p.QuarantineThreshold < -1 {
		return p, fmt.Errorf("config: instance %q: quarantine_threshold must be >= 0", in.ID)
	}
	if p.QuarantineCooldown < 0 {
		return p, fmt.Errorf("config: instance %q: quarantine_cooldown must be >= 0", in.ID)
	}
	switch p.Degrade {
	case "", "skip", "hold", "zero", "auto":
	default:
		return p, fmt.Errorf("config: instance %q: degrade must be skip, hold, zero, or auto, got %q", in.ID, p.Degrade)
	}
	return p, nil
}

// FanoutParam parses the `fanout` parameter shared by the multi-node
// data-collection modules: the maximum number of per-node fetches issued
// concurrently per collection iteration. 0 (absent) selects the module's
// default of min(16, number of nodes); 1 forces the serial per-node loop.
func (in *Instance) FanoutParam() (int, error) {
	n, err := in.IntParam("fanout", 0)
	if err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, fmt.Errorf("config: instance %q: fanout must be >= 0", in.ID)
	}
	return n, nil
}

// FloatListParam parses a comma-separated list of floats, or returns def
// when the parameter is absent.
func (in *Instance) FloatListParam(key string, def []float64) ([]float64, error) {
	v, ok := in.Params[key]
	if !ok {
		return def, nil
	}
	parts := strings.Split(v, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		f, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("config: instance %q: parameter %q: %w", in.ID, key, err)
		}
		out = append(out, f)
	}
	return out, nil
}

// File is a parsed fpt-core configuration file.
type File struct {
	// Instances lists the module instances in file order.
	Instances []*Instance
	byID      map[string]*Instance
}

// Instance returns the instance with the given id, if present.
func (f *File) Instance(id string) (*Instance, bool) {
	in, ok := f.byID[id]
	return in, ok
}

// ParseFile reads and parses the configuration file at path.
func ParseFile(path string) (*File, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("config: %w", err)
	}
	defer func() {
		_ = fh.Close() // read-only; close error carries no information
	}()
	f, err := Parse(fh)
	if err != nil {
		return nil, fmt.Errorf("config: %s: %w", path, err)
	}
	return f, nil
}

// ParseString parses configuration text.
func ParseString(text string) (*File, error) {
	return Parse(strings.NewReader(text))
}

// Parse parses a configuration file from r.
func Parse(r io.Reader) (*File, error) {
	f := &File{byID: make(map[string]*Instance)}
	var cur *Instance
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, ";") {
			continue
		}
		if strings.HasPrefix(line, "[") {
			if !strings.HasSuffix(line, "]") {
				return nil, fmt.Errorf("line %d: unterminated section header %q", lineNo, line)
			}
			name := strings.TrimSpace(line[1 : len(line)-1])
			if name == "" {
				return nil, fmt.Errorf("line %d: empty section header", lineNo)
			}
			cur = &Instance{
				Module: name,
				Params: make(map[string]string),
				Line:   lineNo,
			}
			f.Instances = append(f.Instances, cur)
			continue
		}
		if cur == nil {
			return nil, fmt.Errorf("line %d: assignment %q outside any section", lineNo, line)
		}
		key, val, ok := strings.Cut(line, "=")
		if !ok {
			return nil, fmt.Errorf("line %d: expected key = value, got %q", lineNo, line)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		switch {
		case key == "id":
			if cur.ID != "" {
				return nil, fmt.Errorf("line %d: duplicate id for instance %q", lineNo, cur.ID)
			}
			cur.ID = val
		case strings.HasPrefix(key, "input[") && strings.HasSuffix(key, "]"):
			inputName := strings.TrimSpace(key[len("input[") : len(key)-1])
			if inputName == "" {
				return nil, fmt.Errorf("line %d: empty input name", lineNo)
			}
			ref, err := parseInputRef(inputName, val)
			if err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			cur.Inputs = append(cur.Inputs, ref)
		case key == "":
			return nil, fmt.Errorf("line %d: empty parameter name", lineNo)
		default:
			if _, dup := cur.Params[key]; dup {
				return nil, fmt.Errorf("line %d: duplicate parameter %q", lineNo, key)
			}
			cur.Params[key] = val
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading configuration: %w", err)
	}

	// Assign default ids and check uniqueness.
	for _, in := range f.Instances {
		if in.ID == "" {
			in.ID = in.Module
		}
		if _, dup := f.byID[in.ID]; dup {
			return nil, fmt.Errorf("line %d: duplicate instance id %q", in.Line, in.ID)
		}
		f.byID[in.ID] = in
	}
	return f, nil
}

func parseInputRef(inputName, val string) (InputRef, error) {
	if val == "" {
		return InputRef{}, fmt.Errorf("input[%s]: empty source", inputName)
	}
	if strings.HasPrefix(val, "@") {
		inst := strings.TrimSpace(val[1:])
		if inst == "" {
			return InputRef{}, fmt.Errorf("input[%s]: empty instance after @", inputName)
		}
		return InputRef{Name: inputName, Instance: inst, All: true}, nil
	}
	inst, out, ok := strings.Cut(val, ".")
	if !ok {
		return InputRef{}, fmt.Errorf("input[%s]: source %q must be instance.output or @instance", inputName, val)
	}
	inst = strings.TrimSpace(inst)
	out = strings.TrimSpace(out)
	if inst == "" || out == "" {
		return InputRef{}, fmt.Errorf("input[%s]: malformed source %q", inputName, val)
	}
	return InputRef{Name: inputName, Instance: inst, Output: out}, nil
}
