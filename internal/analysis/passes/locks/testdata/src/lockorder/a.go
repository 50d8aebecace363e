// Fixture for the locks analyzer's order half: no cycles in the module-wide mutex
// acquisition-order graph. The flagged cases close a cross-package cycle
// against locka, an ABBA cycle inside this package, and a recursive
// re-acquisition through a helper; the clean cases lock in one global
// order or hand off to another goroutine.
package lockorder

import (
	"sync"

	"locka"
)

// crossOrder acquires locka.Store.Mu while holding locka.RegMu — the
// reverse of locka.(*Store).Update, closing the cycle. The report lands
// here: this package is where the union graph first becomes cyclic.
func crossOrder(s *locka.Store) { // want fact:"Acquires\\(locka.RegMu,locka.Store.Mu\\)"
	locka.RegMu.Lock()
	s.Mu.Lock() // want "lock order cycle \\(potential deadlock\\): locka.RegMu \\(held at .*\\) → locka.Store.Mu \\(acquired at .*\\); locka.Store.Mu \\(held at .*\\) → locka.RegMu \\(acquired at .*\\)"
	s.Mu.Unlock()
	locka.RegMu.Unlock()
}

var muA sync.Mutex
var muB sync.Mutex

func abOrder() { // want fact:"Acquires\\(lockorder.muA,lockorder.muB\\)"
	muA.Lock()
	muB.Lock() // want "lock order cycle \\(potential deadlock\\): lockorder.muA \\(held at .*\\) → lockorder.muB \\(acquired at .*\\); lockorder.muB \\(held at .*\\) → lockorder.muA \\(acquired at .*\\)"
	muB.Unlock()
	muA.Unlock()
}

func baOrder() { // want fact:"Acquires\\(lockorder.muA,lockorder.muB\\)"
	muB.Lock()
	muA.Lock()
	muA.Unlock()
	muB.Unlock()
}

var selfMu sync.Mutex

// lockedHelper's Acquires fact makes the re-acquisition below visible.
func lockedHelper() { // want fact:"Acquires\\(lockorder.selfMu\\)"
	selfMu.Lock()
	defer selfMu.Unlock()
}

func reenters() { // want fact:"Acquires\\(lockorder.selfMu\\)"
	selfMu.Lock()
	defer selfMu.Unlock()
	lockedHelper() // want "lock order cycle \\(potential deadlock\\): lockorder.selfMu \\(held at .*\\) → lockorder.selfMu \\(acquired at .* via call to lockorder.lockedHelper\\)"
}

var order1 sync.Mutex
var order2 sync.Mutex

// hierarchyOne/hierarchyTwo acquire in the same global order: no cycle.
func hierarchyOne() { // want fact:"Acquires\\(lockorder.order1,lockorder.order2\\)"
	order1.Lock()
	order2.Lock()
	order2.Unlock()
	order1.Unlock()
}

func hierarchyTwo() { // want fact:"Acquires\\(lockorder.order1,lockorder.order2\\)"
	order1.Lock()
	defer order1.Unlock()
	order2.Lock()
	defer order2.Unlock()
}

// goWrongOrder hands the reversed acquisition to a new goroutine, which
// runs under its own stack: no order2 → order1 edge.
func goWrongOrder() { // want fact:"Acquires\\(lockorder.order2\\)"
	order2.Lock()
	go func() {
		order1.Lock()
		order1.Unlock()
	}()
	order2.Unlock()
}

// releasedBefore releases muB before taking muA: no overlap, no edge.
func releasedBefore() { // want fact:"Acquires\\(lockorder.muA,lockorder.muB\\)"
	muB.Lock()
	muB.Unlock()
	muA.Lock()
	muA.Unlock()
}
