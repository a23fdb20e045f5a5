package core

import (
	"fmt"
	"log"
	"sort"
	"time"

	"github.com/asdf-project/asdf/internal/config"
)

// Module is the fpt-core plug-in interface (§3.2). All modules —
// data-collection and analysis alike — implement the same two methods.
//
// In step mode (Engine.Tick) Runs are serial: one at a time, in
// topological order. A Tick may first run a collect phase, in which the
// collect functions that due periodic instances registered at Init
// (InitContext.RegisterCollect) run concurrently with each other, at most
// FanoutCap at a time, before any Run starts; a collect function touches
// only its own instance's state. In real-time mode (Engine.Run) the Runs of
// different instances may run concurrently.
type Module interface {
	// Init is called once when the instance is created, in DAG dependency
	// order. It validates inputs and configuration, creates outputs, and
	// registers scheduling hooks via the InitContext.
	Init(ctx *InitContext) error
	// Run is called by the scheduler; ctx.Reason says why (periodic tick,
	// fresh inputs, or final flush).
	Run(ctx *RunContext) error
}

// Factory constructs a fresh, un-initialized module instance.
type Factory func() Module

// Registry maps module names (configuration section names) to factories.
type Registry struct {
	factories map[string]Factory
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{factories: make(map[string]Factory)}
}

// Register adds a module factory under name. Registering a duplicate name
// is a programming error and panics.
func (r *Registry) Register(name string, f Factory) {
	if name == "" || f == nil {
		panic("core: Register requires a name and a factory")
	}
	if _, dup := r.factories[name]; dup {
		panic(fmt.Sprintf("core: module %q registered twice", name))
	}
	r.factories[name] = f
}

// Lookup returns the factory for name, if registered.
func (r *Registry) Lookup(name string) (Factory, bool) {
	f, ok := r.factories[name]
	return f, ok
}

// Names returns the registered module names, sorted.
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.factories))
	for n := range r.factories {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// InitContext is passed to Module.Init.
type InitContext struct {
	inst   *instanceState
	engine *Engine
}

// Config returns the instance's configuration section.
func (c *InitContext) Config() *config.Instance { return c.inst.cfg }

// ID returns the instance id.
func (c *InitContext) ID() string { return c.inst.id }

// Inputs returns all resolved input ports, in configuration order.
func (c *InitContext) Inputs() []*InputPort {
	out := make([]*InputPort, len(c.inst.inputs))
	copy(out, c.inst.inputs)
	return out
}

// Input returns the ports bound to the given input name. The `@instance`
// configuration form can bind several ports to one name.
func (c *InitContext) Input(name string) []*InputPort {
	var out []*InputPort
	for _, in := range c.inst.inputs {
		if in.name == name {
			out = append(out, in)
		}
	}
	return out
}

// NewOutput creates and registers an output port with origin metadata.
// Output names must be unique within the instance.
func (c *InitContext) NewOutput(name string, origin Origin) (*OutputPort, error) {
	if name == "" {
		return nil, fmt.Errorf("core: instance %q: empty output name", c.inst.id)
	}
	for _, o := range c.inst.outputs {
		if o.name == name {
			return nil, fmt.Errorf("core: instance %q: duplicate output %q", c.inst.id, name)
		}
	}
	out := &OutputPort{name: name, origin: origin, owner: c.inst}
	c.inst.outputs = append(c.inst.outputs, out)
	return out, nil
}

// SchedulePeriodic asks the scheduler to call Run with RunPeriodic every
// period. Data-collection (output-only) modules use this (§3.3).
func (c *InitContext) SchedulePeriodic(period time.Duration) error {
	if period <= 0 {
		return fmt.Errorf("core: instance %q: period must be positive, got %v", c.inst.id, period)
	}
	c.inst.period = period
	return nil
}

// TriggerOnInputs asks the scheduler to call Run with RunInputs once n
// input updates have accumulated (§3.3: "a configurable number of their
// inputs are updated"). n defaults to 1 for any module with inputs that
// never calls this.
func (c *InitContext) TriggerOnInputs(n int) error {
	if n <= 0 {
		return fmt.Errorf("core: instance %q: trigger count must be positive, got %d", c.inst.id, n)
	}
	c.inst.trigger = n
	return nil
}

// RegisterCollect joins the instance to step mode's collect phase: before
// any periodic Run of a Tick in which the instance is due, the engine calls
// fn — concurrently with the other due instances' collect functions, at
// most FanoutCap at a time — and waits for all of them. fn is for I/O
// (fetching this fire's data into the module's own scratch); the Run that
// follows publishes it. The Run must still fetch inline when nothing was
// collected for its fire: Engine.Run never calls fn, a clock jump fires an
// instance more than once per Tick but collects once, and an instance with
// a watchdog or a quarantine threshold is kept out of the phase (it fetches
// under its supervisor, inside Run). A panic in fn is recovered and
// reported by the instance's next periodic Run as that Run's panic.
func (c *InitContext) RegisterCollect(fn func()) {
	c.inst.collect = fn
}

// Logf writes to the engine log.
func (c *InitContext) Logf(format string, args ...any) {
	c.engine.logf("["+c.inst.id+"] "+format, args...)
}

// RunContext is passed to Module.Run.
type RunContext struct {
	inst   *instanceState
	engine *Engine

	// Reason reports why the module was run.
	Reason RunReason
	// Now is the engine's current time: virtual time in step mode,
	// wall-clock in real-time mode.
	Now time.Time
}

// ID returns the instance id.
func (c *RunContext) ID() string { return c.inst.id }

// Inputs returns all resolved input ports, in configuration order.
func (c *RunContext) Inputs() []*InputPort {
	out := make([]*InputPort, len(c.inst.inputs))
	copy(out, c.inst.inputs)
	return out
}

// Input returns the ports bound to the given input name.
func (c *RunContext) Input(name string) []*InputPort {
	var out []*InputPort
	for _, in := range c.inst.inputs {
		if in.name == name {
			out = append(out, in)
		}
	}
	return out
}

// Output returns the output port with the given name, if it exists.
func (c *RunContext) Output(name string) (*OutputPort, bool) {
	for _, o := range c.inst.outputs {
		if o.name == name {
			return o, true
		}
	}
	return nil, false
}

// Outputs returns all output ports in creation order.
func (c *RunContext) Outputs() []*OutputPort {
	out := make([]*OutputPort, len(c.inst.outputs))
	copy(out, c.inst.outputs)
	return out
}

// Logf writes to the engine log.
func (c *RunContext) Logf(format string, args ...any) {
	c.engine.logf("["+c.inst.id+"] "+format, args...)
}

// Instances returns every instance id in the engine, in initialization
// (topological) order. Together with ModuleOf and SupervisorSnapshots it
// lets observer modules (the print/csv sinks) record engine-wide health
// counters alongside the data they log.
func (c *RunContext) Instances() []string { return c.engine.Instances() }

// ModuleOf returns the module implementation behind the named instance.
func (c *RunContext) ModuleOf(id string) (Module, bool) { return c.engine.ModuleOf(id) }

// SupervisorSnapshots reports every instance's supervisor state.
func (c *RunContext) SupervisorSnapshots() []InstanceHealth {
	return c.engine.SupervisorSnapshots()
}

// Logger abstracts the engine's diagnostic log destination.
type Logger interface {
	Printf(format string, args ...any)
}

// stdLogger adapts the standard library logger.
type stdLogger struct{}

func (stdLogger) Printf(format string, args ...any) { log.Printf(format, args...) }
