package uastring

import (
	"fmt"
	"math/bits"
)

// The signature tables the matcher compiles, in the order Classify
// consults them.
const (
	tblEmbedded = iota
	tblTool
	tblMobile
	tblDesktop
	tblBrowser
	numTables
)

// matchSet records which signature tokens occur in one user agent: bit i
// of word t is set when the token of the i-th rule of table t was found.
type matchSet [numTables]uint32

// first returns the index of the earliest matched rule of table t, or -1.
// Tables are ordered most-specific-first, so this is the rule that wins.
func (m *matchSet) first(t int) int {
	if m[t] == 0 {
		return -1
	}
	return bits.TrailingZeros32(m[t])
}

// matcher is an Aho–Corasick automaton over every token of the
// signature tables, completed to a DFA so a scan is one table load per
// input byte. It folds ASCII case the way containsFold does, by mapping
// both cases of a letter to the same column. A matcher is immutable once
// compiled and safe for concurrent use.
type matcher struct {
	// col maps an input byte to its transition-table column. Bytes that
	// appear in no token share column 0.
	col [256]uint8
	// next[s+col[b]] is the state after reading b in state s. A state is
	// the offset of its row in next, so stepping needs no multiply; the
	// start state is row 0.
	next []uint16
	// States at or past firstOut end at least one token; their matches
	// are out[(s-firstOut)/stride].
	firstOut uint16
	stride   uint16
	out      []matchSet
}

// compileMatcher builds the automaton for tables. It panics on a table
// the matchSet cannot index or an automaton uint16 states cannot address:
// both are mistakes in the package's own rule tables.
func compileMatcher(tables [numTables][]signature) *matcher {
	m := &matcher{}

	// Columns: one per distinct folded token byte, 0 for everything else.
	cols := 1
	for _, table := range tables {
		for _, sig := range table {
			for i := 0; i < len(sig.token); i++ {
				b := foldByte(sig.token[i])
				if m.col[b] == 0 {
					m.col[b] = uint8(cols)
					cols++
				}
			}
		}
	}
	for b := 'A'; b <= 'Z'; b++ {
		m.col[b] = m.col[foldByte(byte(b))]
	}

	// Trie of folded tokens. A node's row holds child node numbers, 0
	// (the root, which is nobody's child) meaning "no edge yet".
	type node struct {
		row []int
		out matchSet
	}
	newNode := func() node { return node{row: make([]int, cols)} }
	nodes := []node{newNode()}
	for t, table := range tables {
		if len(table) > 32 {
			panic(fmt.Sprintf("uastring: signature table %d has %d rules, matchSet holds 32", t, len(table)))
		}
		for i, sig := range table {
			if sig.token == "" {
				panic(fmt.Sprintf("uastring: signature table %d rule %d has an empty token", t, i))
			}
			n := 0
			for j := 0; j < len(sig.token); j++ {
				c := m.col[sig.token[j]]
				if nodes[n].row[c] == 0 {
					nodes[n].row[c] = len(nodes)
					nodes = append(nodes, newNode())
				}
				n = nodes[n].row[c]
			}
			nodes[n].out[t] |= 1 << i
		}
	}

	// Breadth-first: give each node the matches of its longest proper
	// suffix that is also a trie path, and fill its missing edges from
	// that suffix's row (already complete, being shallower). The root's
	// missing edges already point at the root.
	fail := make([]int, len(nodes))
	queue := make([]int, 0, len(nodes))
	for _, child := range nodes[0].row {
		if child != 0 {
			queue = append(queue, child)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		f := fail[n]
		for t, w := range nodes[f].out {
			nodes[n].out[t] |= w
		}
		for c, child := range nodes[n].row {
			if child == 0 {
				nodes[n].row[c] = nodes[f].row[c]
				continue
			}
			fail[child] = nodes[f].row[c]
			queue = append(queue, child)
		}
	}

	// Number the states so the matching ones come last: the scan then
	// tells them apart with one compare.
	if len(nodes)*cols > 1<<16 {
		panic(fmt.Sprintf("uastring: %d states x %d columns overflow uint16 state offsets", len(nodes), cols))
	}
	matches := func(n int) bool { return nodes[n].out != matchSet{} }
	state := make([]uint16, len(nodes))
	rows := 0
	for _, want := range []bool{false, true} {
		if want {
			m.firstOut = uint16(rows * cols)
		}
		for n := range nodes {
			if matches(n) == want {
				state[n] = uint16(rows * cols)
				rows++
			}
		}
	}
	m.stride = uint16(cols)
	m.next = make([]uint16, len(nodes)*cols)
	m.out = make([]matchSet, len(nodes)-int(m.firstOut)/cols)
	for n := range nodes {
		for c, to := range nodes[n].row {
			m.next[int(state[n])+c] = state[to]
		}
		if s := state[n]; s >= m.firstOut {
			m.out[int(s-m.firstOut)/cols] = nodes[n].out
		}
	}
	return m
}

// scan runs s through the automaton once and returns every token found.
func (m *matcher) scan(s string) (set matchSet) {
	st := uint16(0)
	for i := 0; i < len(s); i++ {
		st = m.next[int(st)+int(m.col[s[i]])]
		if st >= m.firstOut {
			o := &m.out[(st-m.firstOut)/m.stride]
			for t := range set {
				set[t] |= o[t]
			}
		}
	}
	return set
}

// foldByte lower-cases an ASCII letter and leaves every other byte alone.
func foldByte(b byte) byte {
	if 'A' <= b && b <= 'Z' {
		b += 'a' - 'A'
	}
	return b
}
