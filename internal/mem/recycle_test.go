package mem

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// recycleSpan is the pages each domain allocates in the recycling tests:
// enough to straddle three chunks, since allocation starts at PFN 1.
const recycleSpan = 2 * chunkFrames

// dirtyThenRelease builds a two-domain memory, dirties random ranges of
// it with nonzero bytes through Write, Copy and Fill, releases it, and
// returns the memory and the chunks it handed to the free list.
func dirtyThenRelease(t *testing.T, rng *rand.Rand, ops int) (*Memory, map[*frameChunk]bool) {
	t.Helper()
	a := New(2)
	var bases [2]Phys
	for d := range bases {
		p, err := a.AllocPages(d, recycleSpan)
		if err != nil {
			t.Fatal(err)
		}
		bases[d] = p
	}
	const span = recycleSpan * PageSize
	rnd := func(max int) (d int, off, n int) {
		d = rng.Intn(2)
		n = 1 + rng.Intn(max)
		off = rng.Intn(span - n + 1)
		return d, off, n
	}
	for i := 0; i < ops; i++ {
		v := byte(1 + rng.Intn(255))
		switch rng.Intn(3) {
		case 0:
			d, off, n := rnd(3 * PageSize)
			if err := a.Write(bases[d]+Phys(off), bytes.Repeat([]byte{v}, n)); err != nil {
				t.Fatal(err)
			}
		case 1:
			d, off, n := rnd(5 * PageSize)
			if err := a.Fill(Buf{Addr: bases[d] + Phys(off), Size: n}, v); err != nil {
				t.Fatal(err)
			}
		case 2:
			// Across domains, so the ranges never overlap.
			d, off, n := rnd(5 * PageSize)
			dst := bases[1-d] + Phys(rng.Intn(span-n+1))
			if err := a.Copy(dst, bases[d]+Phys(off), n); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Make sure there is something to leak, whatever the ops were.
	if err := a.Fill(Buf{Addr: bases[0], Size: PageSize}, 0xa5); err != nil {
		t.Fatal(err)
	}
	given := map[*frameChunk]bool{}
	for d := range a.doms {
		for _, c := range a.doms[d].chunks {
			if c != nil {
				given[c] = true
			}
		}
	}
	a.Release()
	return a, given
}

// checkNoLeak runs one recycling round: memory A dirties and releases
// its chunks, memory B materializes every chunk of the same layout and
// must read zeros everywhere, and B must really have been handed A's
// chunks.
func checkNoLeak(t *testing.T, seed int64, ops int) {
	DropFreeChunks()
	defer DropFreeChunks()
	_, given := dirtyThenRelease(t, rand.New(rand.NewSource(seed)), ops)

	b := New(2)
	reused := 0
	for d := 0; d < 2; d++ {
		base, err := b.AllocPages(d, recycleSpan)
		if err != nil {
			t.Fatal(err)
		}
		// A zero byte per page materializes every chunk of the range
		// without writing anything a leak check could mistake for data.
		for p := 0; p < recycleSpan; p++ {
			if err := b.Write(base+Phys(p*PageSize), []byte{0}); err != nil {
				t.Fatal(err)
			}
		}
		got := make([]byte, recycleSpan*PageSize)
		if err := b.Read(base, got); err != nil {
			t.Fatal(err)
		}
		for i, v := range got {
			if v != 0 {
				t.Fatalf("seed %d: domain %d byte %d of a fresh allocation reads %#x: a released machine's data leaked",
					seed, d, i, v)
			}
		}
		for _, c := range b.doms[d].chunks {
			if given[c] {
				reused++
			}
		}
	}
	if want := min(len(given), chunkCacheCap); reused != want {
		t.Fatalf("seed %d: second memory reused %d chunks, want %d", seed, reused, want)
	}
}

func TestRecycledChunksNeverLeak(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		checkNoLeak(t, seed, 1+int(seed)*3)
	}
}

func FuzzRecycledChunksNeverLeak(f *testing.F) {
	f.Add(int64(1), uint8(1))
	f.Add(int64(7), uint8(40))
	f.Add(int64(-3), uint8(200))
	f.Fuzz(func(t *testing.T, seed int64, ops uint8) {
		checkNoLeak(t, seed, int(ops))
	})
}

func TestRecycleReleasedMemoryRefusesAccess(t *testing.T) {
	defer DropFreeChunks()
	m, _ := dirtyThenRelease(t, rand.New(rand.NewSource(1)), 10)
	base := Phys(PageSize) // the first page AllocPages handed out
	buf := make([]byte, 64)
	if err := m.Read(base, buf); err == nil {
		t.Error("Read after Release succeeded")
	}
	if !bytes.Equal(buf, make([]byte, len(buf))) {
		t.Error("failed Read after Release wrote bytes into the caller's buffer")
	}
	if err := m.Read(base, make([]byte, 2*PageSize)); err == nil {
		t.Error("multi-page Read after Release succeeded")
	}
	if err := m.Write(base, []byte{1}); err == nil {
		t.Error("Write after Release succeeded")
	}
	if err := m.Copy(base+PageSize, base, 16); err == nil {
		t.Error("Copy after Release succeeded")
	}
	if err := m.Fill(Buf{Addr: base, Size: 16}, 1); err == nil {
		t.Error("Fill after Release succeeded")
	}
	if _, err := m.AllocPages(0, 1); err == nil {
		t.Error("AllocPages after Release succeeded")
	}
	if m.Allocated(base) {
		t.Error("a page is still allocated after Release")
	}
	m.Release() // idempotent
}

func TestRecycleFreeListIsCapped(t *testing.T) {
	DropFreeChunks()
	defer DropFreeChunks()
	m := New(1)
	base, err := m.AllocPages(0, (chunkCacheCap+4)*chunkFrames)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < chunkCacheCap+4; c++ {
		if err := m.Write(base+Phys(c*chunkFrames*PageSize), []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	m.Release()
	if n := len(freeChunks.chunks); n != chunkCacheCap {
		t.Errorf("free list holds %d chunks, want the cap %d", n, chunkCacheCap)
	}
	DropFreeChunks()
	if n := len(freeChunks.chunks); n != 0 {
		t.Errorf("free list holds %d chunks after DropFreeChunks", n)
	}
}

// TestRecycleConcurrentMachines runs machines on several goroutines that
// share the free list, as farm workers do: each one writes its own
// marker, releases, and the next machine on any goroutine must start
// from zeros. Run it under -race.
func TestRecycleConcurrentMachines(t *testing.T) {
	DropFreeChunks()
	defer DropFreeChunks()
	const workers, rounds = 4, 25
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(marker byte) {
			errs <- func() error {
				page := bytes.Repeat([]byte{marker}, PageSize)
				got := make([]byte, PageSize)
				for r := 0; r < rounds; r++ {
					m := New(1)
					p, err := m.AllocPages(0, 2*chunkFrames)
					if err != nil {
						return err
					}
					for c := 0; c < 2; c++ {
						at := p + Phys(c*chunkFrames*PageSize)
						if err := m.Write(at, []byte{0}); err != nil {
							return err
						}
						if err := m.Read(at, got); err != nil {
							return err
						}
						if !bytes.Equal(got, make([]byte, PageSize)) {
							return fmt.Errorf("worker %d round %d: fresh page holds another machine's bytes", marker, r)
						}
						if err := m.Write(at, page); err != nil {
							return err
						}
					}
					m.Release()
				}
				return nil
			}()
		}(byte(w + 1))
	}
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
