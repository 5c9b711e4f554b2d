package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"strconv"

	"bioenrich/internal/classify"
	"bioenrich/internal/corpus"
	"bioenrich/internal/ontology"
	"bioenrich/internal/recommend"
	"bioenrich/internal/registry"
	"bioenrich/internal/state"
	"bioenrich/internal/textutil"

	"bioenrich/internal/obs"
)

// epochHeader carries the serving snapshot version on read responses.
// A client doing read-decide-apply copies it into the "epoch" field of
// a later mutation, which the server CAS-checks — a publish in between
// turns the apply into 409 instead of a lost update.
const epochHeader = "X-Epoch"

// setEpochHeader stamps the serving epoch; must run before the body is
// written.
func setEpochHeader(w http.ResponseWriter, epoch uint64) {
	w.Header().Set(epochHeader, strconv.FormatUint(epoch, 10))
}

// classifyRequest is the POST /v1/classify body. Ontology selects the
// registry entry ("" = default; the /v1/ontologies/{name}/classify
// form takes it from the path instead). Epoch, when > 0, pins the
// classification to a snapshot version, rejected with 409 if the entry
// has moved on.
type classifyRequest struct {
	Text     string `json:"text"`
	Ontology string `json:"ontology"`
	Top      int    `json:"top"`
	Epoch    uint64 `json:"epoch"`
}

// handleClassify runs one classification against the current snapshot
// of the request's entry: resolve (atomic map load), snapshot (atomic
// pointer load), classify against the per-epoch cached concept
// profiles — no lock anywhere on the path. The body is decoded before
// the entry resolves, so a malformed body is 400 whatever it names.
func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	s.limitBody(w, r)
	var req classifyRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeError(w, decodeStatus(err), fmt.Errorf("decode request: %w", err))
		return
	}
	if req.Text == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("text is required"))
		return
	}
	if req.Top < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("top: must be non-negative, got %d", req.Top))
		return
	}
	if req.Top == 0 {
		req.Top = 10
	}
	name := r.PathValue("name")
	if name == "" {
		name = req.Ontology
	}
	entry, ok := s.resolveEntry(w, name)
	if !ok {
		return
	}
	snap := entry.Snapshot()
	if req.Epoch != 0 && req.Epoch != snap.Epoch {
		writeError(w, http.StatusConflict,
			fmt.Errorf("requested epoch %d is stale: ontology %q at epoch %d", req.Epoch, entry.Name, snap.Epoch))
		return
	}
	start := obs.Now()
	res, err := s.classifier.Classify(r.Context(), entry.Name, snap, req.Text, req.Top)
	if err != nil {
		if r.Context().Err() != nil {
			writeError(w, runStatus(err), err)
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.opts.Obs.Counter(classify.RequestsMetric, "ontology", entry.Name).Inc()
	s.opts.Obs.Histogram(classify.SecondsMetric, nil, "ontology", entry.Name).Observe(obs.Since(start).Seconds())
	setEpochHeader(w, res.Epoch)
	writeJSON(w, http.StatusOK, map[string]any{
		"ontology":   entry.Name,
		"epoch":      res.Epoch,
		"lang":       res.Lang,
		"doc_tokens": res.DocTokens,
		"concepts":   res.Concepts,
	})
}

// recommendRequest is the POST /v1/recommend body. With Enrich set the
// response additionally submits an asynchronous enrichment job against
// the top-ranked ontology (202 + Location), routing work where the
// ranking says the vocabulary lives; Apply/Workers/EnrichTop shape
// that run like the /v1/jobs/enrich body does.
type recommendRequest struct {
	Text      string `json:"text"`
	Top       int    `json:"top"`
	Enrich    bool   `json:"enrich"`
	Apply     bool   `json:"apply"`
	Workers   int    `json:"workers"`
	EnrichTop int    `json:"enrich_top"`
}

func (s *Server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	s.limitBody(w, r)
	var req recommendRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeError(w, decodeStatus(err), fmt.Errorf("decode request: %w", err))
		return
	}
	if req.Text == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("text is required"))
		return
	}
	if req.Top < 0 || req.Workers < 0 || req.EnrichTop < 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("top, workers and enrich_top must be non-negative"))
		return
	}
	entries := s.reg.Entries()
	inputs := make([]recommend.Input, len(entries))
	for i, e := range entries {
		inputs[i] = recommend.Input{Name: e.Name, Snap: e.Snapshot()}
	}
	start := obs.Now()
	scores, err := recommend.Rank(r.Context(), inputs, req.Text, recommend.Options{})
	if err != nil {
		if r.Context().Err() != nil {
			writeError(w, runStatus(err), err)
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	top := scores[0] // the registry always holds at least the default entry
	s.opts.Obs.Counter(recommend.RequestsMetric, "ontology", top.Ontology).Inc()
	s.opts.Obs.Histogram(recommend.SecondsMetric, nil).Observe(obs.Since(start).Seconds())
	setEpochHeader(w, top.Epoch)
	if req.Top > 0 && req.Top < len(scores) {
		scores = scores[:req.Top]
	}
	if !req.Enrich {
		writeJSON(w, http.StatusOK, map[string]any{"rankings": scores})
		return
	}

	// Route the enrichment job to the winner, pinned to the very
	// snapshot the ranking scored — the epoch this response reports. If
	// that entry publishes before the job's apply commits, the job fails
	// with the conflict code instead of clobbering the interleaved write.
	i := slices.IndexFunc(inputs, func(in recommend.Input) bool { return in.Name == top.Ontology })
	entry, snap := entries[i], inputs[i].Snap
	ereq := enrichRequest{Top: req.EnrichTop, Apply: req.Apply, Workers: req.Workers}
	if ereq.Top == 0 {
		ereq.Top = 10
	}
	job, ok := s.submitEnrich(w, r, snap.Epoch, func(ctx context.Context) (any, error) {
		resp, err := s.runEnrich(ctx, entry, snap, ereq)
		if err != nil {
			return nil, err
		}
		resp["ontology"] = entry.Name
		return resp, nil
	})
	if !ok {
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"rankings": scores,
		"ontology": entry.Name,
		"job":      jobView(job),
	})
}

// ontologyView is one entry in the GET /v1/ontologies listing.
type ontologyView struct {
	Name     string `json:"name"`
	Default  bool   `json:"default"`
	Epoch    uint64 `json:"epoch"`
	Lang     string `json:"lang"`
	Docs     int    `json:"docs"`
	Concepts int    `json:"concepts"`
	Terms    int    `json:"terms"`
}

func entryView(e *registry.Entry, defaultName string) ontologyView {
	snap := e.Snapshot()
	return ontologyView{
		Name:     e.Name,
		Default:  e.Name == defaultName,
		Epoch:    snap.Epoch,
		Lang:     snap.Corpus.Lang().String(),
		Docs:     snap.Corpus.NumDocs(),
		Concepts: snap.Ontology.NumConcepts(),
		Terms:    snap.Ontology.NumTerms(),
	}
}

func (s *Server) handleOntologiesList(w http.ResponseWriter, _ *http.Request) {
	entries := s.reg.Entries() // sorted by name
	views := make([]ontologyView, 0, len(entries))
	for _, e := range entries {
		views = append(views, entryView(e, s.reg.DefaultName()))
	}
	setEpochHeader(w, s.reg.Default().Snapshot().Epoch)
	writeJSON(w, http.StatusOK, map[string]any{
		"default":    s.reg.DefaultName(),
		"ontologies": views,
	})
}

func (s *Server) handleOntologyGet(w http.ResponseWriter, r *http.Request) {
	entry, ok := s.resolveEntry(w, r.PathValue("name"))
	if !ok {
		return
	}
	v := entryView(entry, s.reg.DefaultName())
	setEpochHeader(w, v.Epoch)
	writeJSON(w, http.StatusOK, v)
}

// conceptSpec is one concept in a POST /v1/ontologies body.
type conceptSpec struct {
	ID        ontology.ConceptID   `json:"id"`
	Preferred string               `json:"preferred"`
	Synonyms  []string             `json:"synonyms"`
	Parents   []ontology.ConceptID `json:"parents"`
}

// createOntologyRequest registers a new hosted ontology: a name, a
// language, concepts (parents may reference concepts declared later —
// linking is a second pass), and seed documents for its corpus.
type createOntologyRequest struct {
	Name      string            `json:"name"`
	Lang      string            `json:"lang"`
	Concepts  []conceptSpec     `json:"concepts"`
	Documents []corpus.Document `json:"documents"`
}

func (s *Server) handleOntologyCreate(w http.ResponseWriter, r *http.Request) {
	s.limitBody(w, r)
	var req createOntologyRequest
	if err := decodeStrict(r.Body, &req); err != nil {
		writeError(w, decodeStatus(err), fmt.Errorf("decode request: %w", err))
		return
	}
	if !registry.ValidName(req.Name) {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("name %q: want 1-64 chars of [A-Za-z0-9._-]", req.Name))
		return
	}
	if len(req.Concepts) == 0 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("at least one concept is required"))
		return
	}

	o := ontology.New(req.Name)
	for _, c := range req.Concepts {
		if _, err := o.AddConcept(c.ID, c.Preferred); err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("concept %q: %w", c.ID, err))
			return
		}
		for _, syn := range c.Synonyms {
			if err := o.AddSynonym(c.ID, syn); err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("concept %q synonym %q: %w", c.ID, syn, err))
				return
			}
		}
	}
	// Second pass: every parent exists now regardless of declaration
	// order, and SetParent's cycle check sees the full concept set.
	for _, c := range req.Concepts {
		for _, p := range c.Parents {
			if err := o.SetParent(c.ID, p); err != nil {
				writeError(w, http.StatusBadRequest, fmt.Errorf("concept %q parent %q: %w", c.ID, p, err))
				return
			}
		}
	}
	if err := o.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	c := corpus.New(textutil.ParseLang(req.Lang))
	c.AddAll(req.Documents)
	c.Build()
	st := state.NewStore(c, o)
	if s.opts.OpenEntryBackend != nil {
		d, err := s.opts.OpenEntryBackend(req.Name, st.Load())
		if err != nil {
			writeError(w, http.StatusInternalServerError, fmt.Errorf("open durability backend: %w", err))
			return
		}
		st.SetDurable(d)
	}
	entry, err := s.reg.Add(req.Name, st)
	if err != nil {
		if errors.Is(err, registry.ErrExists) {
			writeError(w, http.StatusConflict, err)
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Location", "/v1/ontologies/"+entry.Name)
	writeJSON(w, http.StatusCreated, entryView(entry, s.reg.DefaultName()))
}
