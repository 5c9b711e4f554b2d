// Relations demonstrates the paper's future-work extension: after a
// term is positioned in the ontology (step IV), the *type* of its
// relations to neighboring terms is read off the verbs and patterns
// connecting the two terms in text.
//
//	go run ./examples/relations
package main

import (
	"context"
	"fmt"
	"log"

	"bioenrich/internal/corpus"
	"bioenrich/internal/relext"
	"bioenrich/internal/textutil"
)

func main() {
	c := corpus.New(textutil.English)
	abstracts := []string{
		"Chemical burns cause corneal injury in industrial accidents.",
		"Corneal injury is often caused by chemical burns and abrasion.",
		"Amniotic membrane treats corneal injury by promoting re-epithelialization.",
		"Early irrigation prevents corneal injury after alkali exposure.",
		"Keratitis is a form of corneal disease affecting the epithelium.",
		"Corneal disease such as keratitis requires topical therapy.",
		"Chemical burns caused corneal injury in two thirds of the cohort.",
		"Bandage lenses relieve corneal injury symptoms overnight.",
	}
	for i, text := range abstracts {
		c.Add(corpus.Document{ID: fmt.Sprintf("d%d", i), Text: text})
	}
	c.Build()

	vocab := []string{
		"chemical burns", "corneal injury", "amniotic membrane",
		"irrigation", "keratitis", "corneal disease", "bandage lenses",
		"abrasion",
	}
	rels, err := relext.NewExtractor(vocab, textutil.English).Extract(context.Background(), c)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("typed relations extracted from the corpus:")
	for _, r := range rels {
		fmt.Printf("  %-16s --%-9s--> %-16s evidence=%d verbs=%v\n",
			r.A, r.Type, r.B, r.Evidence, r.Verbs)
	}
}
