package runspec

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

func TestSplitList(t *testing.T) {
	for _, all := range []string{"", "all", " all , "} {
		if got := splitList(canonList(all)); got != nil {
			t.Errorf("splitList(canonList(%q)) = %v, want nil", all, got)
		}
	}
	want := []string{"copy", "strict"}
	if got := splitList(canonList(" strict , copy ,strict")); !reflect.DeepEqual(got, want) {
		t.Errorf("splitList = %v, want %v", got, want)
	}
	if _, err := splitInts("16,x"); err == nil {
		t.Error("splitInts accepted a non-number")
	}
}

func TestNormalizeIsCanonical(t *testing.T) {
	pairs := [][2]Spec{
		{{Tool: "attackbench", Systems: "strict,copy"}, {Tool: "attackbench", Seed: 1, Systems: "copy, strict", Payloads: "all"}},
		{{Tool: "chaosbench", Scenarios: "poolsqueeze,faultstorm"}, {Tool: "chaosbench", Seed: 1, WindowMs: 2, Cores: 2, System: "strict", Scenarios: "faultstorm,poolsqueeze"}},
		{{Tool: "reproduce", Experiments: "fig3,table1", SkipSensitivity: true}, {Tool: "reproduce", WindowMs: 10, Experiments: "table1,fig3"}},
		// Fields of other tools never reach the canonical form.
		{{Tool: "tenantbench", Cores: 4, CycleReport: true}, {Tool: "tenantbench"}},
	}
	for _, p := range pairs {
		a, err := p[0].Normalize()
		if err != nil {
			t.Fatal(err)
		}
		b, err := p[1].Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("%+v and %+v normalize apart:\n%+v\n%+v", p[0], p[1], a, b)
		}
	}
	for _, bad := range []Spec{
		{Tool: "nosuchtool"},
		{Tool: "reproduce", Experiments: "fig3,nonesuch"},
		{Tool: "chaosbench", Scenarios: "nonesuch"},
		{Tool: "tenantbench", Frames: "big"},
	} {
		if _, err := bad.Normalize(); err == nil {
			t.Errorf("%+v normalized without error", bad)
		}
	}
}

func sectionNames(s Spec) string {
	var out []string
	for _, sec := range s.sections(nil) {
		out = append(out, sec.Name)
	}
	return strings.Join(out, ",")
}

func TestSectionsAndTraceWorkload(t *testing.T) {
	cases := []struct {
		spec     Spec
		sections string
		trace    string
	}{
		{Spec{Tool: "reproduce", Experiments: "all", SkipSensitivity: true},
			"table1,fig1,fig1ext,fig3,fig4,fig5a,fig5b,fig6,fig7,fig8a,fig9,fig10,fig11,memory,apimicro,storage,mixed",
			"cycles-mtu"},
		{Spec{Tool: "reproduce", Experiments: "fig8b,fig10,table1"}, "table1,fig10,fig8b", "cycles-rr"},
		{Spec{Tool: "reproduce", Experiments: "memdetail"}, "memdetail", "cycles-mtu"},
	}
	for _, c := range cases {
		n, err := c.spec.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if got := sectionNames(n); got != c.sections {
			t.Errorf("%q sections = %s, want %s", c.spec.Experiments, got, c.sections)
		}
		if got := n.TraceWorkload().Name; got != c.trace {
			t.Errorf("%q traces %s, want %s", c.spec.Experiments, got, c.trace)
		}
	}
	if all := sectionNames(Spec{Tool: "reproduce", Experiments: "all"}); !strings.HasSuffix(all, "mixed,fig8b,memdetail,sensitivity") {
		t.Errorf("all without skip = %s, want the extended suite", all)
	}
}

// TestExecuteCanceledKeepsPartial: a canceled reproduce run reports the
// cancellation and still returns an artifact (the farm table at least)
// for the partial diagnostic record.
func TestExecuteCanceledKeepsPartial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a, err := Run(ctx, Spec{Tool: "reproduce", WindowMs: 0.5, Experiments: "fig3"}, 2)
	if err == nil {
		t.Fatal("canceled run reported success")
	}
	if a == nil || len(a.Experiments) == 0 || a.Experiments[len(a.Experiments)-1].Name != "farm" {
		t.Fatalf("canceled run returned no partial artifact: %+v", a)
	}
}
