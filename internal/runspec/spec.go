// Package runspec names one deterministic benchmark run and executes it.
// A Spec is everything that changes a run's artifact and nothing else;
// Normalize gives it the canonical form under which two requests that
// mean the same run compare (and hash) equal, and Execute turns it into
// the artifact. The one-shot tools (cmd/reproduce, cmd/chaosbench,
// cmd/attackbench, cmd/tenantbench) and the simd daemon (internal/daemon)
// share this one path, so a daemon-served artifact is the one-shot
// tool's artifact.
package runspec

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/attack"
	"repro/internal/bench"
	"repro/internal/chaos"
	"repro/internal/report"
	"repro/internal/store"
)

// Tools are the runs a Spec can name, one per one-shot tool.
var Tools = []string{"reproduce", "chaosbench", "attackbench", "tenantbench"}

// Spec names one deterministic benchmark run. The normalized spec plus
// the serving binary's fingerprint is the daemon's store key (Key).
type Spec struct {
	Tool string `json:"tool"`
	// Seed seeds chaosbench/attackbench/tenantbench (reproduce has no
	// seed; its experiments are fully determined by window/sections).
	Seed int64 `json:"seed,omitempty"`
	// WindowMs is the simulated window per data point (reproduce,
	// chaosbench; the other tools have fixed windows).
	WindowMs float64 `json:"window_ms,omitempty"`

	// reproduce
	SkipSensitivity bool   `json:"skip_sensitivity,omitempty"`
	Experiments     string `json:"experiments,omitempty"` // comma list or "all"
	// CycleReport appends the cycle table of every selected section's
	// workload (bench.Workload).
	CycleReport bool `json:"cycle_report,omitempty"`

	// chaosbench
	Cores     int    `json:"cores,omitempty"`
	System    string `json:"system,omitempty"`
	Scenarios string `json:"scenarios,omitempty"` // comma list or "all"

	// attackbench
	Payloads string `json:"payloads,omitempty"` // comma list or "all"
	Systems  string `json:"systems,omitempty"`  // comma list or "all"

	// tenantbench
	Schemes string `json:"schemes,omitempty"` // comma list or "all"
	Attacks string `json:"attacks,omitempty"` // comma list or "all"
	Tenants string `json:"tenants,omitempty"` // comma list of counts, "" = library default
	Frames  string `json:"frames,omitempty"`  // comma list of sizes, "" = library default
}

// keyDesc is the canonical store-key descriptor: the normalized spec and
// the code fingerprint, nothing volatile (deadline, cache flags).
type keyDesc struct {
	Fingerprint string `json:"fingerprint"`
	Spec        Spec   `json:"spec"`
}

// Key derives the content address for a normalized spec under a code
// fingerprint.
func (s Spec) Key(fingerprint string) (string, error) {
	return store.Key(keyDesc{Fingerprint: fingerprint, Spec: s})
}

// Normalize validates a spec and fills tool defaults, returning the
// canonical form: two specs that mean the same run always normalize to
// the same value. Lists are trimmed, deduplicated and sorted, so list
// order never changes an artifact or a key.
func (s Spec) Normalize() (Spec, error) {
	n := Spec{Tool: s.Tool}
	var err error
	switch s.Tool {
	case "reproduce":
		n.WindowMs = defFloat(s.WindowMs, 10)
		n.CycleReport = s.CycleReport
		n.Experiments, err = canonExperiments(s.Experiments)
		// The skip only thins "all"; an explicit list names its sections.
		n.SkipSensitivity = s.SkipSensitivity && n.Experiments == "all"
	case "chaosbench":
		n.Seed = defInt64(s.Seed, 1)
		n.WindowMs = defFloat(s.WindowMs, 2)
		n.Cores = defInt(s.Cores, 2)
		n.System = defStr(s.System, "strict")
		n.Scenarios, err = canonScenarios(s.Scenarios)
	case "attackbench":
		n.Seed = defInt64(s.Seed, 1)
		n.Payloads = canonList(s.Payloads)
		n.Systems = canonList(s.Systems)
	case "tenantbench":
		n.Seed = defInt64(s.Seed, 1)
		n.Schemes = canonList(s.Schemes)
		n.Attacks = canonList(s.Attacks)
		n.Tenants = canonList(s.Tenants)
		n.Frames = canonList(s.Frames)
		if _, err = splitInts(n.Tenants); err == nil {
			_, err = splitInts(n.Frames)
		}
	default:
		err = fmt.Errorf("unknown tool %q (have %s)", s.Tool, strings.Join(Tools, ","))
	}
	return n, err
}

// SupportsPreview reports whether the tool has a window knob a
// reduced-window preview can shrink.
func (s Spec) SupportsPreview() bool {
	return s.Tool == "reproduce" || s.Tool == "chaosbench"
}

// sections returns the sections a normalized reproduce spec runs, in
// report order: Table 1 (when selected) leads, then the suite sections.
// "all" is Table 1 plus the extended suite, or the base suite when
// SkipSensitivity; an explicit list selects from the extended suite.
// Table 1's attack verdicts land in *verdicts when it is non-nil.
func (s Spec) sections(verdicts *[]report.AttackVerdict) []bench.Section {
	table1 := bench.Section{Name: "table1", Run: func(o bench.Options) (*bench.Table, error) {
		rows, t, err := attack.Table1(o.WindowMs)
		if verdicts != nil {
			*verdicts = attack.Verdicts(rows)
		}
		return t, err
	}}
	all := append([]bench.Section{table1}, bench.Suite(s.Experiments != "all" || !s.SkipSensitivity)...)
	if s.Experiments == "all" {
		return all
	}
	want := map[string]bool{}
	for _, n := range splitList(s.Experiments) {
		want[n] = true
	}
	var out []bench.Section
	for _, sec := range all {
		if want[sec.Name] {
			out = append(out, sec)
		}
	}
	return out
}

// TraceWorkload is the workload reproduce -tracefile records for a
// normalized spec: the first selected section's, or Figure 6's 16-core
// MTU receive point when no selected section names one.
func (s Spec) TraceWorkload() *bench.Workload {
	for _, sec := range append(s.sections(nil), bench.Suite(false)...) {
		if sec.Workload != nil {
			return sec.Workload
		}
	}
	return nil
}

func defFloat(v, d float64) float64 {
	if v <= 0 {
		return d
	}
	return v
}

func defInt64(v, d int64) int64 {
	if v == 0 {
		return d
	}
	return v
}

func defInt(v, d int) int {
	if v <= 0 {
		return d
	}
	return v
}

func defStr(v, d string) string {
	if v == "" {
		return d
	}
	return v
}

// canonList canonicalizes a comma list: trimmed, deduped, sorted. "all"
// and "" both mean the library default and normalize to "all".
func canonList(s string) string {
	seen := map[string]bool{}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" && !seen[part] {
			seen[part] = true
			out = append(out, part)
		}
	}
	if len(out) == 0 || (len(out) == 1 && out[0] == "all") {
		return "all"
	}
	sort.Strings(out)
	return strings.Join(out, ",")
}

// canonExperiments canonicalizes and validates a reproduce experiment
// list against the extended suite plus "table1".
func canonExperiments(s string) (string, error) {
	c := canonList(s)
	if c == "all" {
		return c, nil
	}
	known := map[string]bool{}
	names := []string{}
	for _, sec := range (Spec{Experiments: "all"}).sections(nil) {
		known[sec.Name] = true
		names = append(names, sec.Name)
	}
	for _, name := range splitList(c) {
		if !known[name] {
			return "", fmt.Errorf("unknown experiment %q (have %s)", name, strings.Join(names, ","))
		}
	}
	return c, nil
}

// canonScenarios canonicalizes and validates a chaosbench scenario list.
func canonScenarios(s string) (string, error) {
	c := canonList(s)
	for _, name := range splitList(c) {
		if _, err := chaos.Find(name); err != nil {
			return "", err
		}
	}
	return c, nil
}

// splitList expands a canonical comma list for the library configs, where
// nil means "all".
func splitList(s string) []string {
	if s == "" || s == "all" {
		return nil
	}
	return strings.Split(s, ",")
}

// splitInts expands a canonical comma list of counts (nil = "all").
func splitInts(s string) ([]int, error) {
	var out []int
	for _, part := range splitList(s) {
		n, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("bad count %q: %w", part, err)
		}
		out = append(out, n)
	}
	return out, nil
}
