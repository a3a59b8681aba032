//go:build race

package replay

// raceEnabled gates tests whose assertions (allocation counts, layout-level
// timing) are not meaningful under the race detector's instrumentation.
const raceEnabled = true
