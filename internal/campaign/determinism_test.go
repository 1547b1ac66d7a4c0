package campaign_test

import (
	"bytes"
	"runtime"
	"testing"

	"repro/internal/bench"
	"repro/internal/campaign"
	"repro/internal/report"
)

// campaignArtifact runs a smoke-sized campaign sweep at the given farm
// width and returns the encoded artifact bytes, exactly as
// cmd/attackbench -json would write them.
func campaignArtifact(t *testing.T, parallel int) []byte {
	t.Helper()
	cfg := campaign.MatrixConfig{
		Seed:     1,
		Payloads: []string{"replay-window", "window-discovery", "fault-storm", "magazine-reuse"},
		Systems:  []string{bench.SysLinuxStrict, bench.SysLinuxDefer, bench.SysCopy, bench.SysSelfInval, bench.SysSWIOTLB},
	}
	if parallel != 1 {
		farm := bench.NewFarm(parallel)
		defer farm.Close()
		cfg.Farm = farm
	}
	tb, _, err := campaign.Matrix(cfg)
	if err != nil {
		t.Fatalf("Matrix(parallel=%d): %v", parallel, err)
	}
	art := report.New("attackbench", campaign.CellWindowMs, nil)
	art.Add(*tb)
	var buf bytes.Buffer
	if err := art.Encode(&buf); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return buf.Bytes()
}

// TestCampaignArtifactDeterminism mirrors TestFarmArtifactDeterminism for
// the attack campaign: every cell is an independent machine seeded by
// bench.PointSeed, so the success-matrix artifact must be byte-identical
// at -parallel 1, 4 and GOMAXPROCS (and race-clean — this test is part of
// make race-smoke).
func TestCampaignArtifactDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep comparison")
	}
	ref := campaignArtifact(t, 1)
	for _, parallel := range []int{4, runtime.GOMAXPROCS(0)} {
		got := campaignArtifact(t, parallel)
		if !bytes.Equal(ref, got) {
			t.Errorf("campaign artifact at parallel=%d differs from serial reference (%d vs %d bytes)",
				parallel, len(got), len(ref))
		}
	}
}
