package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"time"

	"tnkd/internal/serve"
	"tnkd/internal/store"
)

// served is a serve.Server listening on a loopback port.
type served struct {
	*handlerServer
	srv *serve.Server
}

func startServe(mounts []serve.Mount, opts serve.Options) (*served, error) {
	srv := serve.New(mounts, opts)
	h, err := startHandler(srv.Handler())
	if err != nil {
		return nil, err
	}
	return &served{handlerServer: h, srv: srv}, nil
}

// stop shuts the listener down and closes the mounted readers.
func (s *served) stop() error {
	s.handlerServer.stop()
	return s.srv.Close()
}

// storeView is the GET /v1/stores row the benchmark reads.
type storeView struct {
	Name       string `json:"name"`
	Generation int    `json:"generation"`
	Patterns   int    `json:"patterns"`
}

// storesView fetches GET /v1/stores.
func storesView(ctx context.Context, client *http.Client, base string) ([]storeView, error) {
	var out []storeView
	err := getJSON(ctx, client, base+"/v1/stores", &out)
	return out, err
}

// storeCodes lists a store's distinct pattern codes in record order.
func storeCodes(r *store.Reader) []string {
	seen := map[string]bool{}
	var codes []string
	for i := 0; i < r.NumPatterns(); i++ {
		c := r.Info(i).Code
		if !seen[c] {
			seen[c] = true
			codes = append(codes, c)
		}
	}
	return codes
}

// storeLabels lists the vertex labels of a store's location index.
func storeLabels(r *store.Reader) []string {
	byLabel, _, ok := r.LocationIndex()
	if !ok {
		return nil
	}
	labels := make([]string, 0, len(byLabel))
	for l := range byLabel {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	return labels
}

// record is the part of a point or support response match the
// benchmark verifies.
type record struct {
	Index   int   `json:"index"`
	Support int   `json:"support"`
	TIDs    []int `json:"tids"`
}

// checkResponse verifies a point or support response for q.code
// against the store the server mounts: the same records, supports and
// TID lists the reader decodes.
func checkResponse(r *store.Reader, q query, body []byte) error {
	var resp struct {
		Code    string   `json:"code"`
		Matches []record `json:"matches"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return fmt.Errorf("%s %s: decode: %w", classNames[q.class], q.code, err)
	}
	want := r.FindByCode(q.code)
	if resp.Code != q.code || len(resp.Matches) != len(want) {
		return fmt.Errorf("%s %s: %d matches, store has %d", classNames[q.class], q.code, len(resp.Matches), len(want))
	}
	for k, i := range want {
		p, err := r.PatternLite(i)
		if err != nil {
			return err
		}
		m := resp.Matches[k]
		if m.Index != i || m.Support != p.Support || !slices.Equal(m.TIDs, p.TIDs.Slice()) {
			return fmt.Errorf("%s %s: record %d disagrees with the store", classNames[q.class], q.code, i)
		}
	}
	return nil
}

// awaitGeneration polls GET /v1/stores until the named mount serves
// generation gen, and returns when the answering query completed.
func awaitGeneration(ctx context.Context, client *http.Client, base, name string, gen int, timeout time.Duration) (time.Time, error) {
	deadline := time.Now().Add(timeout)
	for {
		views, err := storesView(ctx, client, base)
		if err != nil {
			return time.Time{}, err
		}
		for _, v := range views {
			if v.Name == name && v.Generation >= gen {
				if v.Generation != gen {
					return time.Time{}, fmt.Errorf("mount %s jumped to generation %d, want %d", name, v.Generation, gen)
				}
				return time.Now(), nil
			}
		}
		if time.Now().After(deadline) {
			return time.Time{}, fmt.Errorf("mount %s did not reach generation %d within %s", name, gen, timeout)
		}
		time.Sleep(100 * time.Microsecond)
	}
}
