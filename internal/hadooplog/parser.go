package hadooplog

import (
	"fmt"
	"strings"
	"time"
)

// StateVector is the per-second white-box metric sample: the number of
// simultaneously live instances of each state (plus counts of instant
// events) during one second, in StatesFor(kind) order.
type StateVector struct {
	// Time is the start of the one-second bucket.
	Time time.Time
	// Counts holds one count per state, ordered as StatesFor(kind).
	Counts []float64
}

// taskInfo tracks a live task attempt between its entrance and exit events.
type taskInfo struct {
	isMap      bool
	phase      ReducePhase // reduce tasks only; "" before the first progress line
	enteredAt  time.Time   // bucket in which the task state was entered
	phaseSince time.Time   // bucket in which the current phase was entered
	lastEvent  time.Time   // bucket of the task's most recent log line
}

// Parser incrementally converts one daemon's log lines into per-second
// state vectors. It maintains only the set of currently live tasks and
// block writes, so memory use is bounded by concurrency, not log length
// (§4.4: "constant memory use in the order of the duration").
//
// Lines must arrive in non-decreasing timestamp order, as they do in a log
// file. Non-matching lines are counted but otherwise ignored, so parsing is
// robust to unknown log messages.
type Parser struct {
	kind   Kind
	states []State
	dims   int // MetricDims(kind): states plus derived metrics
	idx    map[State]int

	tasks      map[string]*taskInfo
	blockSince map[string]time.Time // WriteBlock entry bucket per block

	bucket     time.Time // start of the current (unflushed) second
	haveBucket bool
	instant    []float64 // instant-event counts for the current bucket
	shortLived []float64 // states entered and exited within the current bucket

	failures []time.Time // recent task-failure event times (trailing window)

	pending []StateVector

	// LinesParsed counts lines that matched a known event; LinesSkipped
	// counts lines that did not.
	LinesParsed  uint64
	LinesSkipped uint64
}

// NewParser creates a parser for the given daemon kind.
func NewParser(kind Kind) *Parser {
	states := StatesFor(kind)
	idx := make(map[State]int, len(states))
	for i, s := range states {
		idx[s] = i
	}
	return &Parser{
		kind:       kind,
		states:     states,
		dims:       MetricDims(kind),
		idx:        idx,
		tasks:      make(map[string]*taskInfo),
		blockSince: make(map[string]time.Time),
		instant:    make([]float64, len(states)),
		shortLived: make([]float64, len(states)),
	}
}

// Kind reports the daemon kind this parser handles.
func (p *Parser) Kind() Kind { return p.kind }

// ParseLine consumes one raw log line.
func (p *Parser) ParseLine(line string) error {
	line = strings.TrimRight(line, "\r\n")
	if len(line) < len(timeLayout)+2 {
		p.LinesSkipped++
		return nil
	}
	ts, err := time.Parse(timeLayout, line[:len(timeLayout)])
	if err != nil {
		p.LinesSkipped++
		return nil
	}
	bucket := ts.Truncate(time.Second)
	if p.haveBucket && bucket.Before(p.bucket) {
		return fmt.Errorf("hadooplog: timestamp went backwards: %s before bucket %s",
			bucket.Format(time.RFC3339), p.bucket.Format(time.RFC3339))
	}
	p.advanceTo(bucket)

	// Strip "LEVEL class: " to get the message.
	rest := line[len(timeLayout)+1:]
	_, rest, ok := strings.Cut(rest, " ") // drop level
	if !ok {
		p.LinesSkipped++
		return nil
	}
	_, msg, ok := strings.Cut(rest, ": ") // drop class
	if !ok {
		p.LinesSkipped++
		return nil
	}

	var matched bool
	switch p.kind {
	case KindTaskTracker:
		matched = p.parseTaskTracker(bucket, msg)
	case KindDataNode:
		matched = p.parseDataNode(bucket, msg)
	}
	if matched {
		p.LinesParsed++
	} else {
		p.LinesSkipped++
	}
	return nil
}

// Flush finalizes buckets strictly before until, emitting vectors for quiet
// seconds in which states remained live. Call this when the log has been
// read to its current end.
func (p *Parser) Flush(until time.Time) {
	p.advanceTo(until.Truncate(time.Second))
}

// Drain returns and clears the finalized per-second vectors.
func (p *Parser) Drain() []StateVector {
	out := p.pending
	p.pending = nil
	return out
}

// LiveTasks reports the number of task attempts currently being tracked.
func (p *Parser) LiveTasks() int { return len(p.tasks) }

// advanceTo finalizes all buckets before newBucket.
func (p *Parser) advanceTo(newBucket time.Time) {
	if !p.haveBucket {
		p.bucket = newBucket
		p.haveBucket = true
		return
	}
	for p.bucket.Before(newBucket) {
		p.flushBucket()
		p.bucket = p.bucket.Add(time.Second)
	}
}

// flushBucket emits the vector for the current bucket: the state counts
// followed by the derived duration/failure metrics.
func (p *Parser) flushBucket() {
	counts := make([]float64, p.dims)
	copy(counts, p.instant)
	for i := range p.shortLived {
		counts[i] += p.shortLived[i]
	}
	for _, t := range p.tasks {
		p.countTask(t, counts)
	}
	for range p.blockSince {
		counts[p.idx[StateWriteBlock]]++
	}

	base := len(p.states)
	switch p.kind {
	case KindTaskTracker:
		var mapStall, redStall float64
		for _, t := range p.tasks {
			silent := p.bucket.Sub(t.lastEvent).Seconds()
			if t.isMap {
				if s := silent - mapStallGraceSec; s > mapStall {
					mapStall = s
				}
			} else if s := silent - reduceStallGraceSec; s > redStall {
				redStall = s
			}
		}
		counts[base] = mapStall
		counts[base+1] = redStall
		// Prune and count recent failures.
		horizon := p.bucket.Add(-failureHistory * time.Second)
		kept := p.failures[:0]
		for _, ft := range p.failures {
			if ft.After(horizon) {
				kept = append(kept, ft)
			}
		}
		p.failures = kept
		counts[base+2] = float64(len(p.failures))
	case KindDataNode:
		var writeStall float64
		for _, since := range p.blockSince {
			if s := p.bucket.Sub(since).Seconds() - writeBlockGraceSec; s > writeStall {
				writeStall = s
			}
		}
		counts[base] = writeStall
	}

	p.pending = append(p.pending, StateVector{Time: p.bucket, Counts: counts})
	for i := range p.instant {
		p.instant[i] = 0
		p.shortLived[i] = 0
	}
}

func (p *Parser) countTask(t *taskInfo, counts []float64) {
	if t.isMap {
		counts[p.idx[StateMapTask]]++
		return
	}
	counts[p.idx[StateReduceTask]]++
	switch t.phase {
	case PhaseCopy:
		counts[p.idx[StateReduceCopy]]++
	case PhaseSort:
		counts[p.idx[StateReduceSort]]++
	case PhaseReduce:
		counts[p.idx[StateReduceReduce]]++
	}
}

// bump adds a short-lived occurrence for a state that was entered and
// exited within the current bucket.
func (p *Parser) bump(s State) {
	p.shortLived[p.idx[s]]++
}

func (p *Parser) parseTaskTracker(bucket time.Time, msg string) bool {
	switch {
	case strings.HasPrefix(msg, "LaunchTaskAction: "):
		id := strings.TrimSpace(strings.TrimPrefix(msg, "LaunchTaskAction: "))
		if id == "" {
			return false
		}
		p.tasks[id] = &taskInfo{
			isMap:     strings.Contains(id, "_m_"),
			enteredAt: bucket,
			lastEvent: bucket,
		}
		return true

	case strings.HasPrefix(msg, "Task "):
		rest := strings.TrimPrefix(msg, "Task ")
		var id string
		switch {
		case strings.HasSuffix(rest, " is done."):
			id = strings.TrimSuffix(rest, " is done.")
		case strings.Contains(rest, " failed: "):
			id, _, _ = strings.Cut(rest, " failed: ")
			p.failures = append(p.failures, bucket)
		default:
			return false
		}
		t, ok := p.tasks[id]
		if !ok {
			return true // exit for a task launched before this parser started
		}
		delete(p.tasks, id)
		if t.enteredAt.Equal(bucket) {
			// Entered and exited within the same second: count once.
			if t.isMap {
				p.bump(StateMapTask)
			} else {
				p.bump(StateReduceTask)
			}
		}
		if !t.isMap && t.phase != "" && t.phaseSince.Equal(bucket) {
			switch t.phase {
			case PhaseCopy:
				p.bump(StateReduceCopy)
			case PhaseSort:
				p.bump(StateReduceSort)
			case PhaseReduce:
				p.bump(StateReduceReduce)
			}
		}
		return true

	case strings.Contains(msg, "% reduce > "):
		// "<taskid> <pct>% reduce > <phase>"
		id, rest, ok := strings.Cut(msg, " ")
		if !ok {
			return false
		}
		_, phaseName, ok := strings.Cut(rest, "reduce > ")
		if !ok {
			return false
		}
		phase := ReducePhase(strings.TrimSpace(phaseName))
		if phase != PhaseCopy && phase != PhaseSort && phase != PhaseReduce {
			return false
		}
		t, ok := p.tasks[id]
		if !ok || t.isMap {
			return true // progress for an unknown task; tolerated
		}
		t.lastEvent = bucket
		if t.phase != phase {
			// Phase transition: if the old phase lived entirely within
			// this bucket, count it as short-lived.
			if t.phase != "" && t.phaseSince.Equal(bucket) {
				switch t.phase {
				case PhaseCopy:
					p.bump(StateReduceCopy)
				case PhaseSort:
					p.bump(StateReduceSort)
				case PhaseReduce:
					p.bump(StateReduceReduce)
				}
			}
			t.phase = phase
			t.phaseSince = bucket
		}
		return true
	}
	return false
}

func (p *Parser) parseDataNode(bucket time.Time, msg string) bool {
	switch {
	case strings.HasPrefix(msg, "Receiving block "):
		fields := strings.Fields(msg)
		if len(fields) < 3 {
			return false
		}
		p.blockSince[fields[2]] = bucket
		return true

	case strings.HasPrefix(msg, "Received block "):
		fields := strings.Fields(msg)
		if len(fields) < 3 {
			return false
		}
		id := fields[2]
		since, ok := p.blockSince[id]
		if !ok {
			return true // write began before this parser started
		}
		delete(p.blockSince, id)
		if since.Equal(bucket) {
			p.bump(StateWriteBlock)
		}
		return true

	case strings.HasPrefix(msg, "Served block "):
		p.instant[p.idx[StateReadBlock]]++
		return true

	case strings.HasPrefix(msg, "Deleting block "):
		p.instant[p.idx[StateDeleteBlock]]++
		return true
	}
	return false
}
