package rt

import "repro/internal/core"

// Schedule and ParseSchedule forward to core's schedule vocabulary. They
// exist only for the repository benchmark (bench/), which names them, and go
// away when the benchmark is re-based; nothing else uses them.
type Schedule = core.Schedule

// ParseSchedule forwards to core.ParseSchedule; see Schedule.
func ParseSchedule(text string) (Schedule, error) { return core.ParseSchedule(text) }
