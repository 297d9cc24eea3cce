package main

import (
	"math/rand"

	"heapmd/internal/event"
	"heapmd/internal/logger"
)

// churnEvents emits one store-churn stream into sink: objects live
// 64-byte objects, then n events of which 70% are pointer stores into
// random slots, 10% free an object and allocate its replacement at a
// fresh address, 10% are Enter/Leave pairs and 10% are loads.
func churnEvents(rng *rand.Rand, objects, n int, sink event.Sink) {
	const size = 64
	next := uint64(0x1000_0000_0000)
	alloc := func() uint64 { a := next; next += size; return a }
	slot := func(obj uint64) uint64 { return obj + uint64(rng.Intn(size/8))*8 }

	live := make([]uint64, objects)
	for i := range live {
		live[i] = alloc()
		sink.Emit(event.Event{Type: event.Alloc, Fn: 1, Addr: live[i], Size: size})
	}
	for emitted := 0; emitted < n; {
		obj := live[rng.Intn(objects)]
		switch r := rng.Intn(10); {
		case r < 7:
			v := live[rng.Intn(objects)]
			if rng.Intn(8) == 0 {
				v = 0 // clear the slot now and then
			}
			sink.Emit(event.Event{Type: event.Store, Addr: slot(obj), Value: v})
			emitted++
		case r == 7:
			k := rng.Intn(objects)
			sink.Emit(event.Event{Type: event.Free, Addr: live[k], Size: size})
			live[k] = alloc()
			sink.Emit(event.Event{Type: event.Alloc, Fn: 1, Addr: live[k], Size: size})
			emitted += 2
		case r == 8:
			fn := event.FnID(2 + rng.Intn(8))
			sink.Emit(event.Event{Type: event.Enter, Fn: fn})
			sink.Emit(event.Event{Type: event.Leave, Fn: fn})
			emitted += 2
		default:
			sink.Emit(event.Event{Type: event.Load, Addr: slot(obj)})
			emitted++
		}
	}
}

// treeEvents emits one structure-extended stream into sink: a
// heap-ordered binary tree of nodes 32-byte objects built without
// function entries, nodes/8 cross edges, then points rounds of light
// churn (re-pointed cross edges, a few leaves replaced), each closed by
// exactly the function entries that make one metric point.
func treeEvents(rng *rand.Rand, nodes, points int, sink event.Sink) {
	const size = 32 // words: left, right, cross, payload
	next := uint64(0x2000_0000_0000)
	alloc := func() uint64 { a := next; next += size; return a }
	// link stores node i's address into its parent's child slot.
	cur := make([]uint64, nodes)
	link := func(i int) {
		sink.Emit(event.Event{Type: event.Store, Addr: cur[(i-1)/2] + uint64((i-1)%2)*8, Value: cur[i]})
	}
	cross := func() {
		sink.Emit(event.Event{Type: event.Store, Addr: cur[rng.Intn(nodes)] + 16, Value: cur[rng.Intn(nodes)]})
	}

	for i := range cur {
		cur[i] = alloc()
		sink.Emit(event.Event{Type: event.Alloc, Fn: 1, Addr: cur[i], Size: size})
		if i > 0 {
			link(i)
		}
	}
	for k := 0; k < nodes/8; k++ {
		cross()
	}
	for p := 0; p < points; p++ {
		for k := 0; k < 32; k++ {
			cross()
		}
		for k := 0; k < 4; k++ {
			i := nodes/2 + rng.Intn(nodes-nodes/2) // i >= nodes/2 has no children
			sink.Emit(event.Event{Type: event.Free, Addr: cur[i], Size: size})
			cur[i] = alloc()
			sink.Emit(event.Event{Type: event.Alloc, Fn: 1, Addr: cur[i], Size: size})
			link(i)
		}
		for k := 0; k < logger.SimulationFrequency; k++ {
			sink.Emit(event.Event{Type: event.Enter, Fn: 2})
			sink.Emit(event.Event{Type: event.Leave, Fn: 2})
		}
	}
}
