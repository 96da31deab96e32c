// Package dupsite is the attrinfer fixer's shared-site case: two CreateAtom
// calls use one site string, so the analyzer derives one summary for both
// and one finding whose fix strengthens each call's literal. The planned
// edits must not conflict, and applying them must leave a package that
// type-checks and that xmem-vet reports clean. dupsite.go.golden is this file after
// `xmem-vet -fix`.
package dupsite

import (
	"xmem/internal/core"
	"xmem/internal/mem"
	"xmem/internal/workload"
)

const elems = 64

// firstPass creates the shared atom and streams over its buffer.
func firstPass(p workload.Program) {
	id := p.Lib().CreateAtom("dupsite.grid", core.Attributes{Intensity: 50}) // want "declares weaker semantics"
	base := p.Malloc("grid-a", elems*8, id)
	for i := 0; i < elems; i++ {
		p.Load(0, base+mem.Addr(i*8))
	}
}

// secondPass reuses the site string with a different literal that is also
// weaker than the shared summary, for a second buffer of the same shape.
func secondPass(p workload.Program) {
	id := p.Lib().CreateAtom("dupsite.grid", core.Attributes{Pattern: core.PatternRegular, Intensity: 50})
	base := p.Malloc("grid-b", elems*8, id)
	for i := 0; i < elems; i++ {
		p.Load(0, base+mem.Addr(i*8))
	}
}
