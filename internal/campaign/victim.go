package campaign

import (
	"bytes"
	"fmt"

	"repro/internal/cycles"
	"repro/internal/dmaapi"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/nic"
	"repro/internal/sim"
)

// Mapping is one victim DMA mapping with its full OS-side lifetime.
type Mapping struct {
	Index      int
	IOVA       iommu.IOVA
	Buf        mem.Buf
	Dir        dmaapi.Dir
	MappedAt   uint64
	UnmappedAt uint64
	Live       bool
}

// VictimLog is the OS-side ground truth of every mapping the victim made.
// Verify phases read it as the oracle; discovery-mode payloads must not
// read addresses from it before Verify.
type VictimLog struct {
	Mappings []*Mapping
}

// Stale returns the unmapped (sentinel-filled) mappings.
func (l *VictimLog) Stale() []*Mapping {
	var out []*Mapping
	for _, m := range l.Mappings {
		if !m.Live {
			out = append(out, m)
		}
	}
	return out
}

// SentinelByte is the byte pattern record (or tenant) i is filled with at
// reuse time, standing in for whatever the OS reuses the memory for. Any
// other value in an audited buffer means a device write reached real OS
// memory it was never granted. Shared with internal/tenant, whose
// per-tenant private pages use the same oracle.
func SentinelByte(i int) byte { return byte(0xA1 + i*37) }

// MapVictimBuf maps a caller-staged buffer for DMA, logs the mapping,
// and posts an RX descriptor for it — the legitimate, device-visible
// channel through which the (compromised) device learns the IOVA.
func (t *Target) MapVictimBuf(p *sim.Proc, buf mem.Buf, dir dmaapi.Dir) (*Mapping, error) {
	addr, err := t.Mach.Mapper.Map(p, buf, dir)
	if err != nil {
		return nil, err
	}
	m := &Mapping{
		Index:    len(t.Log.Mappings),
		IOVA:     addr,
		Buf:      buf,
		Dir:      dir,
		MappedAt: p.Now(),
		Live:     true,
	}
	t.Log.Mappings = append(t.Log.Mappings, m)
	if !t.Mach.NIC.Queue(0).PostRx(p, nic.Desc{Addr: addr, Len: buf.Size, Tag: buf}) {
		return nil, fmt.Errorf("campaign: rx ring full posting mapping %d", m.Index)
	}
	return m, nil
}

// MapVictim kmallocs a buffer and maps it via MapVictimBuf.
func (t *Target) MapVictim(p *sim.Proc, size int, dir dmaapi.Dir) (*Mapping, error) {
	buf, err := t.Mach.Kmal.Alloc(0, size)
	if err != nil {
		return nil, err
	}
	return t.MapVictimBuf(p, buf, dir)
}

// BenignDMA performs the mapping's legitimate device access (a frame
// delivery for FromDevice, a payload fetch for ToDevice) — which, on
// translated backends, caches the translation in the IOTLB exactly as
// real traffic would.
func (t *Target) BenignDMA(p *sim.Proc, m *Mapping) error {
	if m.Dir == dmaapi.ToDevice {
		got := make([]byte, m.Buf.Size)
		if res := t.Mach.IOMMU.DMARead(t.Dev(), m.IOVA, got); res.Fault != nil {
			return fmt.Errorf("benign DMA read of mapping %d: %v", m.Index, res.Fault)
		}
		return nil
	}
	payload := []byte(fmt.Sprintf("frame-%03d:benign-rx-payload", m.Index))
	if res := t.Mach.IOMMU.DMAWrite(t.Dev(), m.IOVA, payload); res.Fault != nil {
		return fmt.Errorf("benign DMA write of mapping %d: %v", m.Index, res.Fault)
	}
	return nil
}

// UnmapVictim unmaps the buffer and models immediate OS reuse of the
// memory: the whole buffer is refilled with the record's sentinel, so
// later device writes through stale state are detectable as corruption
// of real OS data.
func (t *Target) UnmapVictim(p *sim.Proc, m *Mapping) error {
	if err := t.Mach.Mapper.Unmap(p, m.IOVA, m.Buf.Size, m.Dir); err != nil {
		return fmt.Errorf("unmap of mapping %d: %w", m.Index, err)
	}
	m.Live = false
	m.UnmappedAt = p.Now()
	return t.Mach.Mem.Fill(m.Buf, SentinelByte(m.Index))
}

// RunTraffic models a victim driver processing n receive buffers:
// map, deliver one frame, unmap, reuse. Every buffer ends unmapped and
// sentinel-filled, so afterwards Log.Stale() is the complete corruption
// oracle and the IOTLB holds whatever stale state the strategy left.
func (t *Target) RunTraffic(p *sim.Proc, n int) error {
	for i := 0; i < n; i++ {
		m, err := t.MapVictim(p, 1500, dmaapi.FromDevice)
		if err != nil {
			return err
		}
		if err := t.BenignDMA(p, m); err != nil {
			return err
		}
		if err := t.UnmapVictim(p, m); err != nil {
			return err
		}
	}
	return nil
}

// CorruptedStale returns the indices of unmapped mappings whose buffers
// no longer hold their sentinel — i.e. real OS memory a device write
// reached after the unmap. Writes that landed in shadow buffers or
// bounce slots do not show up here, by construction.
func (t *Target) CorruptedStale() ([]int, error) {
	var out []int
	for _, m := range t.Log.Stale() {
		bad, err := t.corrupted(m)
		if err != nil {
			return nil, err
		}
		if bad {
			out = append(out, m.Index)
		}
	}
	return out, nil
}

// ReplayObserved issues a device write to the i-th IOVA in the
// attacker's notebook — the told-the-address attacker discovery mode is
// measured against.
func (t *Target) ReplayObserved(p *sim.Proc, i int, payload []byte) iommu.DMAResult {
	return t.Mach.IOMMU.DMAWrite(t.Dev(), t.Observed[i], payload)
}

// restoreSentinel re-fills an unmapped mapping's buffer with its
// sentinel (between probe rounds of multi-shot payloads).
func (t *Target) restoreSentinel(m *Mapping) error {
	return t.Mach.Mem.Fill(m.Buf, SentinelByte(m.Index))
}

// corrupted reports whether one unmapped mapping's buffer lost its
// sentinel.
func (t *Target) corrupted(m *Mapping) (bool, error) {
	snap, err := t.Mach.Mem.Snapshot(m.Buf)
	if err != nil {
		return false, err
	}
	want := SentinelByte(m.Index)
	for _, b := range snap {
		if b != want {
			return true, nil
		}
	}
	return false, nil
}

// colocatedPair stages the classic sub-page layout: two consecutive slab
// allocations sharing one page, the second holding Secret.
func (t *Target) colocatedPair(size int) (dmaBuf, secBuf mem.Buf, err error) {
	dmaBuf, err = t.Mach.Kmal.Alloc(0, size)
	if err != nil {
		return
	}
	secBuf, err = t.Mach.Kmal.Alloc(0, size)
	if err != nil {
		return
	}
	if !mem.SamePage(dmaBuf, secBuf) {
		err = fmt.Errorf("campaign: slab allocations not co-located")
		return
	}
	err = t.Mach.Mem.Write(secBuf.Addr, Secret)
	return
}

// leakEquals reports whether a device read recovered exactly the secret.
func leakEquals(got []byte, fault *iommu.Fault) bool {
	return fault == nil && bytes.Equal(got, Secret)
}

// sleepUs advances the attacking proc's virtual time.
func sleepUs(p *sim.Proc, us float64) { p.Sleep(cycles.FromMicros(us)) }
