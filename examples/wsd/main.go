// WSD demonstrates steps II-III on an ambiguous biomedical term: the
// word "cold" appears in PubMed both as the common cold (infection)
// and as low temperature (therapy). Given mixed contexts, the system
// predicts the number of senses with the paper's internal indexes and
// induces each sense's concept features.
//
//	go run ./examples/wsd
package main

import (
	"fmt"
	"log"

	"bioenrich/internal/cluster"
	"bioenrich/internal/corpus"
	"bioenrich/internal/senseind"
	"bioenrich/internal/textutil"
)

func main() {
	c := buildAmbiguousCorpus()
	term := "cold"
	fmt.Printf("%q occurs %d times in %d documents\n\n", term, c.TF(term), c.NumDocs())

	// Predict the number of senses with each index (direct algorithm,
	// bag-of-words), as step III does after step II flags the term.
	ctxs := c.Contexts(term, corpus.ContextWindow)
	raw := make([][]string, len(ctxs))
	for i, ctx := range ctxs {
		raw[i] = ctx.Words
	}
	fmt.Println("sense-number prediction by index (true k = 2):")
	for _, ix := range cluster.Indexes {
		in := &senseind.Inducer{
			Algorithm:      cluster.Direct,
			Index:          ix,
			Representation: senseind.BagOfWords,
			Seed:           1,
		}
		k, err := in.PredictK(raw)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %s -> k = %d\n", ix, k)
	}

	// Induce the senses. On a dozen short contexts the greedy
	// agglomerative algorithm is the most stable choice.
	in := senseind.New()
	in.Algorithm = cluster.Agglo
	in.Index = cluster.CK
	res, err := in.InduceFromContexts(term, raw, true)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ninduced %d sense(s):\n", res.K)
	for _, s := range res.Senses {
		fmt.Printf("  sense %d (%d contexts):", s.ID+1, s.Size)
		for _, f := range s.Features {
			fmt.Printf(" %s", f.Feature)
		}
		fmt.Println()
	}
}

// buildAmbiguousCorpus mixes two clearly distinct senses of "cold".
func buildAmbiguousCorpus() *corpus.Corpus {
	infection := []string{
		"The common cold virus causes rhinitis, sneezing and sore throat in winter patients.",
		"A cold with fever and cough responds to rest; the rhinovirus infection resolves within days.",
		"Children catch a cold frequently; sneezing, congestion and sore throat are typical symptoms.",
		"The cold spread through the ward as the rhinovirus infected patients with cough and congestion.",
		"Zinc lozenges may shorten a cold, easing sore throat, sneezing and nasal congestion.",
		"Influenza differs from a cold although cough, congestion and sore throat overlap as symptoms.",
	}
	temperature := []string{
		"Cold therapy with ice packs reduces swelling and inflammation after muscle strain injuries.",
		"Cold exposure lowers skin temperature; cryotherapy chambers apply freezing air to tissue.",
		"The cold compress was applied to the sprained ankle to reduce swelling and numb pain.",
		"Cold water immersion after exercise reduces muscle soreness through vasoconstriction of tissue.",
		"Cryotherapy uses extreme cold to destroy abnormal tissue; liquid nitrogen freezes the lesion.",
		"Cold stress triggers vasoconstriction and shivering as the body defends core temperature.",
	}
	c := corpus.New(textutil.English)
	id := 0
	for _, group := range [][]string{infection, temperature} {
		for _, text := range group {
			id++
			c.Add(corpus.Document{ID: fmt.Sprintf("d%02d", id), Text: text})
		}
	}
	c.Build()
	return c
}
