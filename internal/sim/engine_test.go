package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEngineOrdersEvents(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(3, func() { got = append(got, 3) })
	e.Schedule(1, func() { got = append(got, 1) })
	e.Schedule(2, func() { got = append(got, 2) })
	e.Run()
	for i, v := range []int{1, 2, 3} {
		if got[i] != v {
			t.Fatalf("event order = %v", got)
		}
	}
	if e.Now() != 3 {
		t.Errorf("final time = %v, want 3", e.Now())
	}
}

func TestEngineFIFOAtSameTime(t *testing.T) {
	e := NewEngine()
	var got []string
	e.Schedule(1, func() { got = append(got, "a") })
	e.Schedule(1, func() { got = append(got, "b") })
	e.Run()
	if got[0] != "a" || got[1] != "b" {
		t.Errorf("same-time events reordered: %v", got)
	}
}

func TestEngineScheduleInPastClamps(t *testing.T) {
	e := NewEngine()
	var fired float64 = -1
	e.Schedule(5, func() {
		e.Schedule(2, func() { fired = e.Now() }) // in the past
	})
	e.Run()
	if fired != 5 {
		t.Errorf("past event fired at %v, want clamped to 5", fired)
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 100 {
			e.Schedule(e.Now()+1, chain)
		}
	}
	e.Schedule(e.Now(), chain)
	e.Run()
	if count != 100 {
		t.Errorf("chain ran %d times, want 100", count)
	}
	if e.Now() != 99 {
		t.Errorf("final time = %v, want 99", e.Now())
	}
}

// Property: events fire in nondecreasing time order regardless of
// insertion order.
func TestEngineOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var fired []float64
		times := make([]float64, 50)
		for i := range times {
			times[i] = float64(rng.Intn(1000))
			tt := times[i]
			e.Schedule(tt, func() { fired = append(fired, tt) })
		}
		e.Run()
		if !sort.Float64sAreSorted(fired) {
			return false
		}
		return len(fired) == len(times)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestResourceSerializes(t *testing.T) {
	r := &Resource{Name: "gpu"}
	start1, end1 := r.AcquireSpan(0, 10)
	start2, end2 := r.AcquireSpan(5, 10) // requested while busy: queues behind
	if start1 != 0 || end1 != 10 {
		t.Errorf("first span = [%v, %v]; want [0, 10]", start1, end1)
	}
	if start2 != 10 || end2 != 20 {
		t.Errorf("second span = [%v, %v]; want [10, 20]", start2, end2)
	}
	if start3, end3 := r.AcquireSpan(30, 2); start3 != 30 || end3 != 32 {
		t.Errorf("span after an idle gap = [%v, %v]; want [30, 32]", start3, end3)
	}
}
