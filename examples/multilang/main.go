// Multilang demonstrates step I (BIOTEX-style term extraction) over
// English, French and Spanish corpora — the three languages the
// paper's workflow targets.
//
//	go run ./examples/multilang
package main

import (
	"context"
	"fmt"
	"log"

	"bioenrich/internal/corpus"
	"bioenrich/internal/termex"
	"bioenrich/internal/textutil"
)

func main() {
	ctx := context.Background()
	for _, demo := range []struct {
		lang textutil.Lang
		docs []string
	}{
		{textutil.English, []string{
			"The corneal injury caused severe epithelial damage. Corneal injury treatment uses amniotic membrane grafts.",
			"Chronic corneal diseases and corneal injury impair vision. The bacterial infection worsened the corneal injury.",
		}},
		{textutil.French, []string{
			"La maladie de crohn est une maladie chronique. La maladie de crohn provoque une infection intestinale.",
			"Une infection bacterienne aggrave la maladie de crohn. Le traitement de la maladie chronique reste difficile.",
		}},
		{textutil.Spanish, []string{
			"La enfermedad cronica del corazon causa insuficiencia cardiaca. La infeccion bacteriana complica la enfermedad cronica.",
			"El tratamiento de la enfermedad cronica requiere medicina diaria contra la insuficiencia cardiaca.",
		}},
	} {
		c := corpus.New(demo.lang)
		for i, text := range demo.docs {
			c.Add(corpus.Document{ID: fmt.Sprintf("%s%d", demo.lang, i), Text: text})
		}
		c.Build()
		ext := termex.NewExtractor(c)
		ranked, err := ext.Rank(ctx, termex.CValue, 5)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("[%s] top candidates by C-value:\n", demo.lang)
		for i, st := range ranked {
			fmt.Printf("  %d. %-28s %.3f (tf=%d)\n", i+1, st.Term, st.Score, st.Freq)
		}
		fmt.Println()
	}
}
