// Package hadooplog implements ASDF's white-box Hadoop instrumentation
// (§4.4): writing Hadoop-0.18-style TaskTracker and DataNode logs (used by
// the cluster simulator), and parsing such logs into numeric per-second
// state vectors. Each thread of execution is approximated by a DFA whose
// states are entered and exited by log events; the per-second count of
// simultaneously live instances of each state is the white-box metric
// vector fed to the analysis modules.
package hadooplog

// State is one high-level Hadoop execution mode inferred from the logs.
type State int

// TaskTracker states (duration states except where noted).
const (
	// StateMapTask: a map task is executing on this TaskTracker.
	StateMapTask State = iota + 1
	// StateReduceTask: a reduce task is executing (any phase).
	StateReduceTask
	// StateReduceCopy: a reduce task is in its shuffle/copy phase.
	StateReduceCopy
	// StateReduceSort: a reduce task is in its merge/sort phase.
	StateReduceSort
	// StateReduceReduce: a reduce task is applying the reduce function.
	StateReduceReduce
	// StateWriteBlock: a DataNode is receiving a block (duration state).
	StateWriteBlock
	// StateReadBlock: a DataNode served a block read (instant event).
	StateReadBlock
	// StateDeleteBlock: a DataNode deleted a block (instant event).
	StateDeleteBlock
)

// String names the state as used in metric vectors and reports.
func (s State) String() string {
	switch s {
	case StateMapTask:
		return "MapTask"
	case StateReduceTask:
		return "ReduceTask"
	case StateReduceCopy:
		return "ReduceCopy"
	case StateReduceSort:
		return "ReduceSort"
	case StateReduceReduce:
		return "ReduceReduce"
	case StateWriteBlock:
		return "WriteBlock"
	case StateReadBlock:
		return "ReadBlock"
	case StateDeleteBlock:
		return "DeleteBlock"
	default:
		return "Unknown"
	}
}

// Kind selects which daemon's log a writer or parser handles.
type Kind int

// Log kinds.
const (
	// KindTaskTracker is the mapred TaskTracker log.
	KindTaskTracker Kind = iota + 1
	// KindDataNode is the dfs DataNode log.
	KindDataNode
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindTaskTracker:
		return "tasktracker"
	case KindDataNode:
		return "datanode"
	default:
		return "unknown"
	}
}

// TaskTrackerStates lists the states carried in a TaskTracker state vector,
// in vector order.
var TaskTrackerStates = []State{
	StateMapTask, StateReduceTask, StateReduceCopy, StateReduceSort, StateReduceReduce,
}

// DataNodeStates lists the states carried in a DataNode state vector, in
// vector order.
var DataNodeStates = []State{StateWriteBlock, StateReadBlock, StateDeleteBlock}

// StatesFor returns the state vector layout for a log kind.
func StatesFor(kind Kind) []State {
	switch kind {
	case KindTaskTracker:
		return TaskTrackerStates
	case KindDataNode:
		return DataNodeStates
	default:
		return nil
	}
}

// StateNamesFor returns the state names for a log kind, in vector order.
func StateNamesFor(kind Kind) []string {
	states := StatesFor(kind)
	out := make([]string, len(states))
	for i, s := range states {
		out[i] = s.String()
	}
	return out
}

// Derived duration and event-history metrics appended after the state
// counts in each vector. The paper's state list points to its companion
// report [15] (SALSA), which characterizes states by their durations as
// well as their counts; these metrics carry that duration information in a
// peer-comparable form. Each is zero on a healthy node by construction
// (stall times subtract a grace period covering normal task behaviour), so
// the white-box threshold floor max(1, k*sigma) — designed for metrics that
// are "constant in several nodes" (§4.4) — applies cleanly: a hung task
// grows the stall metric without bound long before any state count changes,
// and a crash-looping task accumulates failure history even though each
// individual failure is an instant event.
var (
	// taskTrackerDerived: seconds (beyond grace) since the quietest-oldest
	// live map / reduce task last logged anything, and the number of task
	// failures in the trailing failureHistory window.
	taskTrackerDerived = []string{"MapStallSec", "ReduceStallSec", "RecentTaskFailures"}
	// dataNodeDerived: seconds (beyond grace) the oldest in-flight block
	// write has been open.
	dataNodeDerived = []string{"WriteBlockStallSec"}
)

// Grace periods: the longest silence a healthy instance of each state
// plausibly produces. Maps log nothing between launch and completion, so
// their grace covers a full healthy map runtime; reduces log progress every
// few seconds; block writes last as long as a reduce's output pipeline.
const (
	failureHistory      = 300 // seconds of failure history kept
	mapStallGraceSec    = 120
	reduceStallGraceSec = 45
	writeBlockGraceSec  = 240
)

// derivedFor returns the derived metric names appended to a kind's states.
func derivedFor(kind Kind) []string {
	switch kind {
	case KindTaskTracker:
		return taskTrackerDerived
	case KindDataNode:
		return dataNodeDerived
	default:
		return nil
	}
}

// MetricNamesFor returns the full per-second vector layout for a log kind:
// the state counts followed by the derived duration/failure metrics.
func MetricNamesFor(kind Kind) []string {
	derived := derivedFor(kind)
	if derived == nil {
		return nil
	}
	return append(StateNamesFor(kind), derived...)
}

// MetricDims reports the length of the vectors a Parser emits for kind. It
// allocates nothing.
func MetricDims(kind Kind) int { return len(StatesFor(kind)) + len(derivedFor(kind)) }
