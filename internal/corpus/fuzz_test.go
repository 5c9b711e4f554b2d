package corpus

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"bioenrich/internal/textutil"
)

// FuzzReadJSONL feeds arbitrary byte streams to the JSONL reader. The
// reader may reject input (malformed lines return an error with a line
// number), but it must never panic, and any corpus it does accept must
// round-trip: write it back out, read it again, and the document set
// must survive unchanged.
func FuzzReadJSONL(f *testing.F) {
	f.Add(`{"id":"d1","title":"BCC","text":"basal cell carcinoma of the skin"}`)
	f.Add(`{"id":"d1","title":"t","text":"alpha beta"}` + "\n" +
		`{"id":"d2","title":"u","text":"beta gamma"}`)
	f.Add("")
	f.Add("\n\n\n")
	f.Add(`{"id":"d1"}`)
	f.Add(`not json at all`)
	f.Add(`{"id":"d1","title":"t","text":"a"}` + "\n" + `{broken`)
	f.Add(`{"id":"é","title":"accenté","text":"café au lait"}`)
	f.Add("{\"id\":\"d1\",\"title\":\"t\",\"text\":\"" + strings.Repeat("x ", 200) + "\"}")

	f.Fuzz(func(t *testing.T, data string) {
		c, err := ReadJSONL(strings.NewReader(data), textutil.English)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if c == nil {
			t.Fatal("ReadJSONL returned nil corpus with nil error")
		}

		// Round-trip: the accepted corpus must serialize and re-read to
		// the same document set.
		var buf bytes.Buffer
		if err := c.WriteJSONL(&buf); err != nil {
			t.Fatalf("WriteJSONL on accepted corpus: %v", err)
		}
		c2, err := ReadJSONL(&buf, textutil.English)
		if err != nil {
			t.Fatalf("re-read of written corpus: %v", err)
		}
		if c2.NumDocs() != c.NumDocs() {
			t.Fatalf("round-trip doc count: got %d, want %d", c2.NumDocs(), c.NumDocs())
		}
		for i := 0; i < c.NumDocs(); i++ {
			if c.Doc(i) != c2.Doc(i) {
				t.Fatalf("round-trip doc %d: got %+v, want %+v", i, c2.Doc(i), c.Doc(i))
			}
		}
		if c2.NumTokens() != c.NumTokens() {
			t.Fatalf("round-trip token count: got %d, want %d", c2.NumTokens(), c.NumTokens())
		}
	})
}

// FuzzCloneLineages decodes bytes into a history of clones and
// appends, and checks lineages against their own full builds along the
// way and at the end. Each op reads one byte, op%3 picking the kind
// and op/3 its lineage: clone it, append a batch of 1–3 documents to
// it, or check it. A batch's words come from later bytes: a word of a
// tiny vocabulary, or one of the next few fresh words past the
// lineage's counter, so clones of one corpus add many of the same new
// words in different orders, and enough of them to fold.
func FuzzCloneLineages(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 9, 1, 3, 5, 7, 2, 5})
	f.Add([]byte{0, 0, 1, 2, 1, 3, 5, 7, 9, 4, 1, 7, 4, 6, 8, 10, 12, 14, 2, 5, 3, 8})
	f.Add([]byte("\x00\x03\x01\x03\xff\xfe\xfd\xfc\x04\x07\x00\x01\x09\x11\x13\x15\x17\x19\x0a\x0e\x02"))

	tiny := []string{"cornea", "graft", "the", "of", "lesion"}
	seed := []Document{
		{ID: "s0", Text: "cornea graft of the lesion"},
		{ID: "s1", Title: "lesion", Text: "the graft"},
	}
	type lineage struct {
		c    *Corpus
		docs []Document
		next int // fresh-word counter
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 {
			ops = ops[:256]
		}
		root := &lineage{c: New(textutil.English), docs: slices.Clone(seed)}
		root.c.AddAll(root.docs)
		root.c.Build()
		all := []*lineage{root}
		byteAt := func(i int) byte {
			if i < len(ops) {
				return ops[i]
			}
			return byte(i)
		}
		for i := 0; i < len(ops); {
			op := ops[i]
			i++
			l := all[int(op/3)%len(all)]
			switch op % 3 {
			case 0:
				if len(all) < 16 {
					all = append(all, &lineage{c: l.c.Clone(), docs: slices.Clone(l.docs), next: l.next})
				}
			case 1:
				batch := make([]Document, 1+int(byteAt(i))%3)
				i++
				for d := range batch {
					words := make([]string, 1+int(byteAt(i))%8)
					i++
					for w := range words {
						b := byteAt(i)
						i++
						if b&1 == 0 {
							words[w] = tiny[int(b>>1)%len(tiny)]
						} else {
							words[w] = fmt.Sprintf("x%d", l.next+1+int(b>>1)%4)
						}
					}
					batch[d] = Document{ID: fmt.Sprintf("d%d", len(l.docs)+d), Text: strings.Join(words, " ")}
				}
				l.next += 2
				l.c.AppendBuild(batch)
				l.docs = append(l.docs, batch...)
			case 2:
				checkLineage(t, l.c, l.docs)
			}
		}
		for _, l := range all {
			checkLineage(t, l.c, l.docs)
		}
	})
}
