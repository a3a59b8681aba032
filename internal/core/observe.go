package core

// PhaseEvent describes one internal transition of an AID scheduler's state
// machine — the decisions the record & replay subsystem captures so a
// recorded run can be inspected and diffed (e.g. "when did sampling finish,
// and what SF did it publish?"). The zero value is meaningless; events are
// only produced through a PhaseObservable hook.
type PhaseEvent struct {
	// TimeNs is the engine timestamp passed to the Next call that performed
	// the transition (virtual ns under the simulator, monotonic ns under
	// the real-goroutine runtime).
	TimeNs int64
	// Tid is the worker thread that owned the transition window.
	Tid int
	// Epoch is the phase number published by the transition: 1 when the
	// initial sampling phase closes, n+1 for AID-dynamic's nth re-estimation.
	// Tail switches keep the epoch they interrupted.
	Epoch int
	// Kind classifies the transition:
	//
	//	"sf-published"  AID-static/hybrid finished sampling and fixed SF/k
	//	"r-initial"     AID-dynamic derived its first R from sampling
	//	"r-smoothed"    AID-dynamic re-estimated R after an AID phase
	//	"tail-switch"   AID-dynamic engaged the end-of-loop dynamic(m) mode
	Kind string
	// SF is the per-core-type estimate published with the transition (a
	// copy; nil for transitions that publish none, e.g. the tail switch).
	SF []float64
}

// PhaseEvent kind values (see PhaseEvent.Kind).
const (
	PhaseSFPublished = "sf-published"
	PhaseRInitial    = "r-initial"
	PhaseRSmoothed   = "r-smoothed"
	PhaseTailSwitch  = "tail-switch"
)

// PhaseObservable is implemented by schedulers that can report their phase
// transitions to an observer — the decision-capture hook of the record &
// replay subsystem. SetPhaseObserver must be called before the first Next
// invocation (both engines install observers at loop admission).
//
// The callback runs on the worker thread that owns the transition; it must
// be cheap and must not call back into the scheduler. Epoch transitions are
// totally ordered (the packed CAS epoch word serializes their windows), but
// AID-dynamic's tail switch rides a separate flag and may fire from another
// thread concurrently with a transition window — concurrent engines must
// therefore route events by Tid into per-worker buffers (as internal/rt
// does) or otherwise tolerate concurrent invocation; the single-goroutine
// simulator needs no such care.
type PhaseObservable interface {
	SetPhaseObserver(fn func(PhaseEvent))
}
