package core

import (
	"math"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/pool"
)

// TestAssignLayout guards the shape of Assign, which every Next returns by
// value, against the rule by which the Go compiler keeps a value in registers
// (cmd/compile/internal/ssa.TypeOK, CanSSA in current releases): at most
// 4·PtrSize bytes, and for a struct at most MaxStruct = 4 fields, each of them
// held to the same rule, and for an array at most one element. The comment on
// the type has what breaking it costs a call.
func TestAssignLayout(t *testing.T) {
	const maxBytes, maxFields = 4 * unsafe.Sizeof(uintptr(0)), 4
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		if typ.Size() > maxBytes {
			t.Errorf("%s (%s) is %d bytes, more than %d", path, typ, typ.Size(), maxBytes)
		}
		switch typ.Kind() {
		case reflect.Struct:
			if typ.NumField() > maxFields {
				t.Errorf("%s (%s) has %d fields, more than %d", path, typ, typ.NumField(), maxFields)
			}
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			if typ.Len() > 1 {
				t.Errorf("%s (%s) is an array of %d elements, more than 1", path, typ, typ.Len())
			}
			walk(path+"[0]", typ.Elem())
		}
	}
	walk("Assign", reflect.TypeOf(Assign{}))
}

// TestAssignAccessesSaturate: a pool-access count past the int16 field
// saturates at math.MaxInt16 instead of wrapping negative, which would hand
// the simulator a negative overhead.
func TestAssignAccessesSaturate(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want int16
	}{{0, 0}, {1, 1}, {math.MaxInt16 - 1, math.MaxInt16 - 1}, {math.MaxInt16, math.MaxInt16},
		{math.MaxInt16 + 1, math.MaxInt16}, {1 << 40, math.MaxInt16}} {
		if got := accesses(tc.n); got != tc.want {
			t.Errorf("accesses(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
	c := AssignCost{PoolAccesses: math.MaxInt16 - 1}
	for _, n := range []int{1, 1, math.MaxInt16, 1 << 40} {
		c.addAccesses(n)
		if c.PoolAccesses != math.MaxInt16 {
			t.Fatalf("after adding %d: PoolAccesses = %d, want %d", n, c.PoolAccesses, math.MaxInt16)
		}
	}
}

// TestAssignCreditWide: a chunk of 1<<30 on the credit path asks the pool for
// CreditBatch chunks, 2^33 iterations, which an int32 CreditClaimed would
// read as 0. The pool caps one acquisition at pool.MaxCredit, so the first
// grant of each thread reports exactly that, and every grant is at most one
// chunk.
func TestAssignCreditWide(t *testing.T) {
	const chunk = 1 << 30
	info := twoTypeInfo(1<<40, 1, 1)
	hybrid, err := NewAIDHybrid(info, chunk, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := NewAIDDynamic(info, chunk, 2*chunk)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Scheduler{hybrid, dyn} {
		for tid := 0; tid < info.NThreads; tid++ {
			asg, ok := s.Next(tid, 0)
			if !ok || asg.N() != chunk {
				t.Fatalf("%s: thread %d got %+v, %v; want a chunk of %d", s.Name(), tid, asg, ok, chunk)
			}
			if asg.CreditClaimed != pool.MaxCredit {
				t.Errorf("%s: thread %d claimed %d, want %d", s.Name(), tid, asg.CreditClaimed, pool.MaxCredit)
			}
		}
	}
}

// TestAIDThreadLayout: in the per-thread table of an AID machine, the fields
// one thread writes on its calls end at least a cache line before the next
// thread's begin, so two workers never write one line. The trailing pad of
// aidThread provides that distance.
func TestAIDThreadLayout(t *testing.T) {
	const line = 64
	var th [2]aidThread
	stride := uintptr(unsafe.Pointer(&th[1])) - uintptr(unsafe.Pointer(&th[0]))
	typ := reflect.TypeOf(th[0])
	first, end := typ.Size(), uintptr(0)
	for i := 0; i < typ.NumField(); i++ {
		if f := typ.Field(i); f.Name != "_" {
			first, end = min(first, f.Offset), max(end, f.Offset+f.Type.Size())
		}
	}
	if gap := stride - end + first; gap < line {
		t.Errorf("one thread's fields end %d bytes before the next thread's begin, want at least %d", gap, line)
	}
}
