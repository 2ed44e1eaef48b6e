package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"alicoco"
)

// verifySample is how many distinct requests the correctness gate sends.
const verifySample = 300

// verify is the correctness gate, run before anything is timed: every
// distinct request of a seeded sample is sent once and its status and
// body are compared with the in-process answer of the built facade
// (generation A), which never went through the catalog, the loader, the
// caches or the handler. On reload-churn, generation B is then committed
// and reloaded in full and the same sample is checked against B, and then
// A is committed and reloaded shard by shard (the writer's other reload
// path) and the sample is checked against A again. The digest of
// all answers is printed; it must repeat for the same seed.
func (b *bench) verify() error {
	g := b.w.newGen(b.st.corpus, b.cfg.seed^0x5eed)
	seen := map[string]bool{}
	var sample []op
	for draws := 0; len(sample) < verifySample && draws < 20*verifySample; draws++ {
		o := g.next()
		key := o.path + "\x00" + string(o.body)
		if !seen[key] {
			seen[key] = true
			sample = append(sample, o)
		}
	}
	h := sha256.New()
	check := func(ref *alicoco.CoCo, label string) error {
		for i := range sample {
			o := &sample[i]
			wantStatus, wantBody := expectedAnswer(ref, o)
			status, body, err := b.fetch(o)
			if err != nil {
				return err
			}
			b.attempted.Add(1)
			fmt.Fprintf(h, "%s %s %d\n", o.path, o.body, status)
			h.Write(body)
			if status != wantStatus || !bytes.Equal(body, wantBody) {
				b.failed.Add(1)
				b.wrong++
				if b.wrong <= 3 {
					fmt.Fprintf(b.out, "WRONG ANSWER (%s) %s %s: got %d %q, want %d %q\n",
						label, o.path, o.body, status, clip(body), wantStatus, clip(wantBody))
				}
			}
		}
		return nil
	}
	if err := check(b.st.ref, "generation A"); err != nil {
		return err
	}
	if b.w.churn {
		if _, err := b.swap(b.admin, true, true); err != nil {
			return err
		}
		if err := check(b.st.alt, "generation B after reload"); err != nil {
			return err
		}
		// Back to A shard by shard: each changed shard is reloaded on its
		// own, and no answer may mix generations once all are swapped.
		if _, err := b.swap(b.admin, false, false); err != nil {
			return err
		}
		if err := check(b.st.ref, "generation A after per-shard reloads"); err != nil {
			return err
		}
	}
	b.digest = hex.EncodeToString(h.Sum(nil))[:16]
	fmt.Fprintf(b.out, "verify: %d distinct requests, %d wrong, answers_digest %s\n", len(sample), b.wrong, b.digest)
	return nil
}

// expectedAnswer renders what the handler must answer for o, encoding the
// facade's in-process result the way the handler does.
func expectedAnswer(ref *alicoco.CoCo, o *op) (int, []byte) {
	switch o.kind {
	case opRecommend:
		rec, ok := ref.Recommend(o.items, recommendK)
		if !ok {
			return http.StatusNotFound, []byte("no recommendation for these items\n")
		}
		return http.StatusOK, encodeJSON(rec)
	case opBatch:
		body := encodeJSON(ref.SearchBatch(o.batch, searchItems))
		return http.StatusOK, append(append([]byte(`{"results":`), body[:len(body)-1]...), "}\n"...)
	default:
		return http.StatusOK, encodeJSON(ref.Search(o.query, searchItems))
	}
}

func encodeJSON(v any) []byte {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		panic(err) // the facade's result types always encode
	}
	return buf.Bytes()
}

// fetch sends o on the admin client and returns status and body.
func (b *bench) fetch(o *op) (int, []byte, error) {
	method := http.MethodGet
	var body io.Reader
	if o.kind == opBatch {
		method, body = http.MethodPost, bytes.NewReader(o.body)
	}
	req, err := http.NewRequestWithContext(b.ctx, method, b.st.base+o.path, body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := b.admin.Do(req)
	if err != nil {
		return 0, nil, fmt.Errorf("verify %s: %w", o.path, err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("verify %s: %w", o.path, err)
	}
	return resp.StatusCode, got, nil
}

func clip(b []byte) string {
	if len(b) > 160 {
		return string(b[:160]) + "..." + strconv.Itoa(len(b)) + "B"
	}
	return string(b)
}
