package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
)

// TestJobSpecWireForm pins jobSpec's JSON, the durable form every job
// persists and a restarted server recovers. A plain spec marshals to
// exactly the bytes the spec type wrote before it embedded
// sweep.Params, and specs stored in that form — plain and sweep — decode
// and run to the same result bytes (pinned by their SHA-256), so a job
// recovered across the upgrade serves what it would have served.
func TestJobSpecWireForm(t *testing.T) {
	s, _ := newTestServer(t, Config{CacheEntries: -1})
	in := testCSV(t, 120, 4, 2, 9)
	const digest = "684f564b1a73a8e75b0905c5ccdea1c2250591342d48514caa94f378450a0ae4"
	if sum := sha256.Sum256(in); hex.EncodeToString(sum[:]) != digest {
		t.Fatalf("test upload digest = %x, want %s: the generator changed", sum, digest)
	}
	upload := filepath.Join(t.TempDir(), "upload.csv")
	if err := os.WriteFile(upload, in, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		query  string // the POST /v1/jobs query a plain spec came from
		spec   string
		result string // hex SHA-256 of the job result
	}{
		{
			name:   "memory",
			query:  "sigma=5&seed=3&chunk=32",
			spec:   `{"sigma":5,"seed":3,"scheme":"additive","chunk":32,"stream":false,"epsilon":1,"delta":0.00001,"sensitivity":1,"digest":"` + digest + `"}`,
			result: "3e17ba72abad775949989a79db12b43e1b138dd8b4822d28fa3e633fa5984a42",
		},
		{
			name:   "stream-attacks",
			query:  "sigma=4&seed=2&chunk=32&stream=1&attacks=pcadr,bedr",
			spec:   `{"sigma":4,"seed":2,"scheme":"additive","chunk":32,"stream":true,"attacks":["pcadr","bedr"],"epsilon":1,"delta":0.00001,"sensitivity":1,"digest":"` + digest + `"}`,
			result: "0a57aea76f630fb00f4828059bb7da84e57b36a5e4dcc1a91b3ba99470b16331",
		},
		{
			name:   "dp-utility",
			query:  "scheme=dp-laplace&epsilon=0.5&sensitivity=2&seed=5&chunk=32&utility=kmeans,nbayes&k=3",
			spec:   `{"sigma":5,"seed":5,"scheme":"dp-laplace","chunk":32,"stream":false,"utility":["kmeans","nbayes"],"epsilon":0.5,"delta":0.00001,"sensitivity":2,"k":3,"digest":"` + digest + `"}`,
			result: "e0b2a5af3711535efdb9043dfa8f61e0e89b1df4b7148b758a35cc50bdade093",
		},
		{
			name:   "sweep",
			spec:   `{"type":"sweep","sigma":0,"seed":0,"scheme":"","chunk":32,"stream":false,"sweep":{"defenses":[{"scheme":"additive","sigmas":[3,5]},{"scheme":"correlated","sigmas":[4]}],"seeds":[1,2],"chunk":32,"stream":true},"digest":"` + digest + `"}`,
			result: "8c3f1e82942dd46bd5272657a4790791463f9921f301a5780a10455843e4aaae",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.query != "" {
				p, err := s.decodeParams(httptest.NewRequest("POST", "/v1/jobs?"+tc.query, nil), assessParamKeys...)
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.Marshal(jobSpec{Params: p.Params, Digest: digest})
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != tc.spec {
					t.Errorf("spec bytes changed:\ngot  %s\nwant %s", got, tc.spec)
				}
			}
			body, err := s.runJob(context.Background(), json.RawMessage(tc.spec), upload, nil)
			if err != nil {
				t.Fatal(err)
			}
			if sum := sha256.Sum256(body); hex.EncodeToString(sum[:]) != tc.result {
				t.Errorf("result SHA-256 = %x, want %s:\n%s", sum, tc.result, body)
			}
		})
	}
}
