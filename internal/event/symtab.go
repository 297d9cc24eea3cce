package event

// Symtab interns function names to FnIDs. It plays the role of the
// symbol-table information the paper's tool reads from the binary
// (Section 4.4 notes HeapMD had access to symbol tables): events carry
// compact FnIDs, and bug reports resolve them back to names through
// the run's Symtab.
//
// FnID 0 is reserved for NoFn ("no attribution"); the first interned
// name receives ID 1.
type Symtab struct {
	byName map[string]FnID
	byID   []string // byID[0] == "" for NoFn
}

// NewSymtab returns an empty symbol table.
func NewSymtab() *Symtab { return NewSymtabCap(0) }

// NewSymtabCap returns an empty symbol table with room for n names, for
// a table whose size is known when it is built, as when a trace's is
// decoded.
func NewSymtabCap(n int) *Symtab {
	return &Symtab{
		byName: make(map[string]FnID, n),
		byID:   append(make([]string, 0, n+1), ""),
	}
}

// Intern returns the FnID for name, assigning a fresh one on first
// use. The empty string maps to NoFn.
func (s *Symtab) Intern(name string) FnID {
	if name == "" {
		return NoFn
	}
	if id, ok := s.byName[name]; ok {
		return id
	}
	id := FnID(len(s.byID))
	s.byName[name] = id
	s.byID = append(s.byID, name)
	return id
}

// Name resolves an FnID back to its function name. Unknown IDs
// resolve to "?".
func (s *Symtab) Name(id FnID) string {
	if int(id) < len(s.byID) {
		if id == NoFn {
			return "<none>"
		}
		return s.byID[id]
	}
	return "?"
}

// Len returns the number of interned names (excluding NoFn).
func (s *Symtab) Len() int { return len(s.byID) - 1 }

// Names resolves a slice of FnIDs (e.g. a captured call stack) to
// names, outermost first.
func (s *Symtab) Names(ids []FnID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = s.Name(id)
	}
	return out
}
