// Package ontology implements the biomedical ontology/terminology
// substrate: concepts carrying preferred terms and synonyms, organized
// in a parent/child DAG with MeSH-style tree numbers. It plays the role
// MeSH plays in step IV (semantic linkage) and, via the term→concepts
// index, the role UMLS plays as the polysemy ground truth of step II
// and Table 1.
package ontology

import (
	"fmt"
	"sort"

	"bioenrich/internal/textutil"
)

// ConceptID identifies a concept (MeSH-descriptor-like, e.g. "D012345").
type ConceptID string

// Concept is one node of the ontology: a meaning with its lexicalizations.
type Concept struct {
	ID        ConceptID   `json:"id"`
	Preferred string      `json:"preferred"` // preferred term (normalized)
	Synonyms  []string    `json:"synonyms"`  // other terms (normalized), preferred excluded
	Parents   []ConceptID `json:"parents"`
	Children  []ConceptID `json:"children"`
	TreeNums  []string    `json:"tree_numbers,omitempty"`
}

// Terms returns the preferred term plus synonyms.
func (c *Concept) Terms() []string {
	out := make([]string, 0, 1+len(c.Synonyms))
	out = append(out, c.Preferred)
	out = append(out, c.Synonyms...)
	return out
}

// Ontology is a mutable concept store with a term index. Not safe for
// concurrent mutation; concurrent reads are fine after construction.
type Ontology struct {
	Name     string
	concepts map[ConceptID]*Concept
	// byTerm maps a normalized term to every concept that lexicalizes
	// it. Terms mapped to ≥ 2 concepts are polysemic — the ground
	// truth for step II and Table 1.
	byTerm map[string][]ConceptID
}

// New returns an empty ontology.
func New(name string) *Ontology {
	return &Ontology{
		Name:     name,
		concepts: make(map[ConceptID]*Concept),
		byTerm:   make(map[string][]ConceptID),
	}
}

// NumConcepts returns the number of concepts.
func (o *Ontology) NumConcepts() int { return len(o.concepts) }

// NumTerms returns the number of distinct terms (all lexicalizations).
func (o *Ontology) NumTerms() int { return len(o.byTerm) }

// Concept returns the concept with the given id, or nil.
func (o *Ontology) Concept(id ConceptID) *Concept { return o.concepts[id] }

// ConceptIDs returns all concept ids in sorted order.
func (o *Ontology) ConceptIDs() []ConceptID {
	ids := make([]ConceptID, 0, len(o.concepts))
	for id := range o.concepts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// AddConcept creates a concept with the given preferred term. Returns
// an error if the id already exists or the term is empty.
func (o *Ontology) AddConcept(id ConceptID, preferred string) (*Concept, error) {
	if _, exists := o.concepts[id]; exists {
		return nil, fmt.Errorf("ontology: concept %s already exists", id)
	}
	p := textutil.NormalizeTerm(preferred)
	if p == "" {
		return nil, fmt.Errorf("ontology: empty preferred term for %s", id)
	}
	c := &Concept{ID: id, Preferred: p}
	o.concepts[id] = c
	o.indexTerm(p, id)
	return c, nil
}

// AddSynonym attaches an additional term to an existing concept.
// Adding a term that the concept already carries is a no-op.
func (o *Ontology) AddSynonym(id ConceptID, term string) error {
	c := o.concepts[id]
	if c == nil {
		return fmt.Errorf("ontology: no concept %s", id)
	}
	t := textutil.NormalizeTerm(term)
	if t == "" {
		return fmt.Errorf("ontology: empty synonym for %s", id)
	}
	if t == c.Preferred {
		return nil
	}
	for _, s := range c.Synonyms {
		if s == t {
			return nil
		}
	}
	c.Synonyms = append(c.Synonyms, t)
	o.indexTerm(t, id)
	return nil
}

func (o *Ontology) indexTerm(term string, id ConceptID) {
	for _, existing := range o.byTerm[term] {
		if existing == id {
			return
		}
	}
	o.byTerm[term] = append(o.byTerm[term], id)
}

// SetParent links child under parent. Returns an error for missing
// concepts, self-parenting, or a link that would create a cycle.
func (o *Ontology) SetParent(child, parent ConceptID) error {
	if child == parent {
		return fmt.Errorf("ontology: %s cannot be its own parent", child)
	}
	cc, pc := o.concepts[child], o.concepts[parent]
	if cc == nil || pc == nil {
		return fmt.Errorf("ontology: missing concept in link %s -> %s", child, parent)
	}
	// Reject cycles: parent must not be a descendant of child.
	if o.isAncestor(child, parent) {
		return fmt.Errorf("ontology: link %s -> %s would create a cycle", child, parent)
	}
	for _, p := range cc.Parents {
		if p == parent {
			return nil // already linked
		}
	}
	cc.Parents = append(cc.Parents, parent)
	pc.Children = append(pc.Children, child)
	return nil
}

// isAncestor reports whether anc is an ancestor of node (or equal).
func (o *Ontology) isAncestor(anc, node ConceptID) bool {
	if anc == node {
		return true
	}
	seen := map[ConceptID]bool{}
	stack := []ConceptID{node}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[cur] {
			continue
		}
		seen[cur] = true
		c := o.concepts[cur]
		if c == nil {
			continue
		}
		for _, p := range c.Parents {
			if p == anc {
				return true
			}
			stack = append(stack, p)
		}
	}
	return false
}

// RemoveConcept deletes a concept, unlinking it from parents, children
// and the term index. Children keep their other parents; orphaned
// children become roots.
func (o *Ontology) RemoveConcept(id ConceptID) {
	c := o.concepts[id]
	if c == nil {
		return
	}
	for _, p := range c.Parents {
		if pc := o.concepts[p]; pc != nil {
			pc.Children = removeID(pc.Children, id)
		}
	}
	for _, ch := range c.Children {
		if cc := o.concepts[ch]; cc != nil {
			cc.Parents = removeID(cc.Parents, id)
		}
	}
	for _, t := range c.Terms() {
		o.byTerm[t] = removeID(o.byTerm[t], id)
		if len(o.byTerm[t]) == 0 {
			delete(o.byTerm, t)
		}
	}
	delete(o.concepts, id)
}

func removeID(ids []ConceptID, id ConceptID) []ConceptID {
	out := ids[:0]
	for _, x := range ids {
		if x != id {
			out = append(out, x)
		}
	}
	return out
}

// RemoveTerm detaches a term from every concept lexicalizing it. A
// concept whose preferred term is removed promotes its first synonym;
// a concept left with no terms at all is removed from the ontology.
// This is the "hold out a term" operation of the step IV evaluation.
func (o *Ontology) RemoveTerm(term string) {
	t := textutil.NormalizeTerm(term)
	ids := append([]ConceptID(nil), o.byTerm[t]...)
	for _, id := range ids {
		c := o.concepts[id]
		if c == nil {
			continue
		}
		if c.Preferred == t {
			if len(c.Synonyms) == 0 {
				o.RemoveConcept(id)
				continue
			}
			c.Preferred = c.Synonyms[0]
			c.Synonyms = c.Synonyms[1:]
		} else {
			out := c.Synonyms[:0]
			for _, s := range c.Synonyms {
				if s != t {
					out = append(out, s)
				}
			}
			c.Synonyms = out
		}
		o.byTerm[t] = removeID(o.byTerm[t], id)
	}
	if len(o.byTerm[t]) == 0 {
		delete(o.byTerm, t)
	}
}

// ConceptsForTerm returns every concept lexicalizing the (normalized)
// term — more than one means the term is polysemic.
func (o *Ontology) ConceptsForTerm(term string) []ConceptID {
	ids := o.byTerm[textutil.NormalizeTerm(term)]
	out := make([]ConceptID, len(ids))
	copy(out, ids)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// HasTerm reports whether the term exists anywhere in the ontology.
// term must be a canonical key: NormalizeTerm's output, or a
// space-join of Normalize'd tokens such as a corpus n-gram, which is
// the same string (FuzzCanonicalKeys in internal/textutil pins this).
// Raw input (HTTP, CLI) goes through NormalizeTerm first, or through
// ConceptsForTerm, which normalizes.
func (o *Ontology) HasTerm(term string) bool {
	return len(o.byTerm[term]) > 0
}

// Terms returns all distinct terms in sorted order.
func (o *Ontology) Terms() []string {
	terms := make([]string, 0, len(o.byTerm))
	for t := range o.byTerm {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	return terms
}

// Validate checks structural invariants: parent/child symmetry,
// acyclicity, and term-index consistency. Returns the first violation.
func (o *Ontology) Validate() error {
	for id, c := range o.concepts {
		for _, p := range c.Parents {
			pc := o.concepts[p]
			if pc == nil {
				return fmt.Errorf("ontology: %s references missing parent %s", id, p)
			}
			if !containsID(pc.Children, id) {
				return fmt.Errorf("ontology: asymmetric link %s -> %s", id, p)
			}
		}
		for _, ch := range c.Children {
			cc := o.concepts[ch]
			if cc == nil {
				return fmt.Errorf("ontology: %s references missing child %s", id, ch)
			}
			if !containsID(cc.Parents, id) {
				return fmt.Errorf("ontology: asymmetric link %s <- %s", id, ch)
			}
		}
		for _, t := range c.Terms() {
			if !containsID(o.byTerm[t], id) {
				return fmt.Errorf("ontology: term index missing %q -> %s", t, id)
			}
		}
	}
	// Acyclicity via Kahn's algorithm over parent links.
	indeg := make(map[ConceptID]int, len(o.concepts))
	for id, c := range o.concepts {
		indeg[id] += 0
		for range c.Parents {
			indeg[id]++
		}
	}
	var queue []ConceptID
	for id, d := range indeg {
		if d == 0 {
			queue = append(queue, id)
		}
	}
	// Seed order comes from a map; sort so the traversal (and any
	// future diagnostics derived from it) is run-independent.
	sort.Slice(queue, func(i, j int) bool { return queue[i] < queue[j] })
	processed := 0
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		processed++
		for _, ch := range o.concepts[cur].Children {
			indeg[ch]--
			if indeg[ch] == 0 {
				queue = append(queue, ch)
			}
		}
	}
	if processed != len(o.concepts) {
		return fmt.Errorf("ontology: cycle detected (%d of %d concepts orderable)",
			processed, len(o.concepts))
	}
	return nil
}

func containsID(ids []ConceptID, id ConceptID) bool {
	for _, x := range ids {
		if x == id {
			return true
		}
	}
	return false
}
