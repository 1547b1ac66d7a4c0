package main

import (
	"reflect"
	"testing"
)

func TestSelfTimesNested(t *testing.T) {
	// A contains B and C; B contains D.
	spans := []span{
		{name: "A", start: 0, end: 100},
		{name: "B", start: 10, end: 30},
		{name: "D", start: 15, end: 20},
		{name: "C", start: 40, end: 60},
	}
	self, parent := selfTimes(spans)
	if want := []int64{60, 15, 5, 20}; !reflect.DeepEqual(self, want) {
		t.Errorf("self = %v, want %v", self, want)
	}
	if want := []int{-1, 0, 1, 0}; !reflect.DeepEqual(parent, want) {
		t.Errorf("parent = %v, want %v", parent, want)
	}
}

func TestSelfTimesOverlapping(t *testing.T) {
	// B starts inside A (A's proc yielded on a lock) but ends after it.
	// Every instant counts once: the self times sum to the covered 14 ns.
	spans := []span{
		{name: "A", start: 0, end: 10},
		{name: "B", start: 4, end: 14},
		{name: "C", start: 20, end: 20}, // zero-length, after a gap
	}
	self, parent := selfTimes(spans)
	if want := []int64{4, 10, 0}; !reflect.DeepEqual(self, want) {
		t.Errorf("self = %v, want %v", self, want)
	}
	if want := []int{-1, 0, -1}; !reflect.DeepEqual(parent, want) {
		t.Errorf("parent = %v, want %v", parent, want)
	}
}

func TestSelfTimesSameStart(t *testing.T) {
	// Ties at one instant resolve in record order: the later span nests.
	spans := []span{
		{name: "outer", start: 5, end: 50},
		{name: "inner", start: 5, end: 25},
	}
	self, parent := selfTimes(spans)
	if want := []int64{25, 20}; !reflect.DeepEqual(self, want) {
		t.Errorf("self = %v, want %v", self, want)
	}
	if parent[1] != 0 {
		t.Errorf("inner's parent = %d, want 0", parent[1])
	}
}

func TestSelfTimesTwoEnginesStayApart(t *testing.T) {
	// Two farm workers run two points' engines at the same time; their
	// spans interleave on the host clock but belong to separate timelines.
	point0 := []span{
		{name: "sim.run", point: 0, start: 0, end: 100},
		{name: "dmaapi.map", point: 0, start: 10, end: 20},
	}
	point1 := []span{
		{name: "sim.run", point: 1, start: 5, end: 50},
		{name: "dmaapi.map", point: 1, start: 30, end: 40},
	}
	self0, _ := selfTimes(point0)
	self1, _ := selfTimes(point1)
	if want := []int64{90, 10}; !reflect.DeepEqual(self0, want) {
		t.Errorf("point 0 self = %v, want %v", self0, want)
	}
	if want := []int64{35, 10}; !reflect.DeepEqual(self1, want) {
		t.Errorf("point 1 self = %v, want %v", self1, want)
	}
	// One timeline for both points would charge point 1's engine time
	// to point 0's run, and the reverse: the reason spans are split by
	// point before selfTimes sees them.
	mixed, _ := selfTimes(append(append([]span{}, point0...), point1...))
	if mixed[0] == self0[0] {
		t.Errorf("mixing points left point 0's self time unchanged (%d); the test no longer shows the hazard", mixed[0])
	}
}
