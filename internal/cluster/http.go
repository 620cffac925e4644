package cluster

import (
	"bytes"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// The fleet protocol rides plain HTTP: JSON for the control plane
// (register / heartbeat / fail, where payloads are tiny and debuggability
// matters) and the MOSSHRD02 binary codec for the data plane (lease
// hands out a ShardSpec, complete uploads a ShardResult) where payloads
// carry counters and must survive version skew explicitly.
//
// Every request body is read fully before any coordinator lock is taken
// (the handlers call Coordinator methods, which lock internally), so
// lockorder's invariant — no network I/O while holding a mutex — holds
// across the package.

// maxBodyBytes bounds request bodies: a ShardResult for the largest legal
// span (maxSpanLayouts layouts × ~150 bytes each) stays well inside it.
const maxBodyBytes = 16 << 20

const wireContentType = "application/x-mosshrd"

type registerRequest struct {
	Name     string `json:"name"`
	Capacity int    `json:"capacity"`
}

type heartbeatRequest struct {
	WorkerID    string `json:"workerId"`
	Shard       string `json:"shard,omitempty"`
	DoneLayouts int    `json:"doneLayouts,omitempty"`
}

type leaseRequest struct {
	WorkerID string `json:"workerId"`
}

type failRequest struct {
	WorkerID string `json:"workerId"`
	Shard    string `json:"shard"`
	Error    string `json:"error"`
}

// Handler exposes the coordinator under a /cluster/v1/* mux. Mount it at
// the server root: the paths are absolute. When CoordinatorConfig.Token
// is set, every request must carry it as a bearer token — a worker that
// can complete shards feeds counters straight into datasets and trained
// models, so the surface authenticates intent, not just integrity (the
// wire checksum only catches corruption).
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/cluster/v1/register", func(w http.ResponseWriter, r *http.Request) {
		var req registerRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		if strings.TrimSpace(req.Name) == "" {
			httpError(w, http.StatusBadRequest, "register: name is required")
			return
		}
		writeJSON(w, http.StatusOK, c.Register(req.Name, req.Capacity))
	})
	mux.HandleFunc("/cluster/v1/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req heartbeatRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		writeJSON(w, http.StatusOK, c.Heartbeat(req.WorkerID, req.Shard, req.DoneLayouts))
	})
	mux.HandleFunc("/cluster/v1/lease", func(w http.ResponseWriter, r *http.Request) {
		var req leaseRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		spec, ok := c.Lease(req.WorkerID)
		if !ok {
			w.WriteHeader(http.StatusNoContent)
			return
		}
		b, err := spec.Encode()
		if err != nil {
			httpError(w, http.StatusInternalServerError, "lease: encode: "+err.Error())
			return
		}
		w.Header().Set("Content-Type", wireContentType)
		w.WriteHeader(http.StatusOK)
		w.Write(b)
	})
	mux.HandleFunc("/cluster/v1/complete", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			httpError(w, http.StatusMethodNotAllowed, "complete: POST only")
			return
		}
		workerID := r.URL.Query().Get("worker")
		body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
		if err != nil {
			httpError(w, http.StatusBadRequest, "complete: read: "+err.Error())
			return
		}
		if len(body) > maxBodyBytes {
			httpError(w, http.StatusRequestEntityTooLarge, "complete: body too large")
			return
		}
		res, err := DecodeResult(body)
		if err != nil {
			httpError(w, http.StatusBadRequest, "complete: "+err.Error())
			return
		}
		if err := c.Complete(workerID, res); err != nil {
			httpError(w, http.StatusConflict, err.Error())
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	mux.HandleFunc("/cluster/v1/fail", func(w http.ResponseWriter, r *http.Request) {
		var req failRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		c.Fail(req.WorkerID, req.Shard, req.Error)
		w.WriteHeader(http.StatusNoContent)
	})
	if c.cfg.Token == "" {
		return mux
	}
	return authHandler(c.cfg.Token, mux)
}

// authHandler rejects requests that do not present the fleet's shared
// token as "Authorization: Bearer <token>". The comparison is constant
// time so the token cannot be guessed byte by byte.
func authHandler(token string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		got, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
		if !ok || subtle.ConstantTimeCompare([]byte(got), []byte(token)) != 1 {
			httpError(w, http.StatusUnauthorized, "cluster: missing or wrong bearer token")
			return
		}
		next.ServeHTTP(w, r)
	})
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return false
	}
	dec := json.NewDecoder(io.LimitReader(r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// Client is the worker's view of a coordinator — one method per protocol
// verb. It is safe for concurrent use.
type Client struct {
	base  string
	token string
	http  *http.Client
}

// NewClient targets a coordinator at base (e.g. "http://host:9090").
// token is the fleet's shared secret, sent as a bearer token on every
// request; empty when the coordinator runs without one.
func NewClient(base, token string) *Client {
	return &Client{
		base:  strings.TrimRight(base, "/"),
		token: token,
		http:  &http.Client{Timeout: 30 * time.Second},
	}
}

// post issues one authenticated POST.
func (cl *Client) post(path, contentType string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequest(http.MethodPost, cl.base+path, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	if cl.token != "" {
		req.Header.Set("Authorization", "Bearer "+cl.token)
	}
	return cl.http.Do(req)
}

// Register announces the worker and returns its coordinator-assigned
// identity and protocol timings.
func (cl *Client) Register(name string, capacity int) (RegisterReply, error) {
	var reply RegisterReply
	err := cl.postJSON("/cluster/v1/register", registerRequest{Name: name, Capacity: capacity}, &reply)
	return reply, err
}

// Heartbeat renews liveness (and the lease on shardKey, when non-empty).
func (cl *Client) Heartbeat(workerID, shardKey string, doneLayouts int) (HeartbeatReply, error) {
	var reply HeartbeatReply
	err := cl.postJSON("/cluster/v1/heartbeat", heartbeatRequest{
		WorkerID: workerID, Shard: shardKey, DoneLayouts: doneLayouts,
	}, &reply)
	return reply, err
}

// Lease asks for the next shard. ok is false when the queue is empty.
func (cl *Client) Lease(workerID string) (spec *ShardSpec, ok bool, err error) {
	body, err := json.Marshal(leaseRequest{WorkerID: workerID})
	if err != nil {
		return nil, false, err
	}
	resp, err := cl.post("/cluster/v1/lease", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusNoContent:
		return nil, false, nil
	case http.StatusOK:
		raw, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
		if err != nil {
			return nil, false, err
		}
		spec, err := DecodeSpec(raw)
		if err != nil {
			return nil, false, err
		}
		return spec, true, nil
	default:
		return nil, false, httpStatusError("lease", resp)
	}
}

// Complete uploads a finished shard's results.
func (cl *Client) Complete(workerID string, res *ShardResult) error {
	b, err := res.Encode()
	if err != nil {
		return err
	}
	resp, err := cl.post("/cluster/v1/complete?worker="+workerID, wireContentType, bytes.NewReader(b))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return httpStatusError("complete", resp)
	}
	return nil
}

// Fail reports a shard execution error.
func (cl *Client) Fail(workerID, shardKey, msg string) error {
	resp, err := cl.post("/cluster/v1/fail", "application/json",
		strings.NewReader(mustJSON(failRequest{WorkerID: workerID, Shard: shardKey, Error: msg})))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return httpStatusError("fail", resp)
	}
	return nil
}

func (cl *Client) postJSON(path string, req, reply any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	resp, err := cl.post(path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpStatusError(path, resp)
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(reply)
}

func httpStatusError(op string, resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	var payload struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(raw, &payload) == nil && payload.Error != "" {
		return fmt.Errorf("cluster: %s: %s (HTTP %d)", op, payload.Error, resp.StatusCode)
	}
	return fmt.Errorf("cluster: %s: HTTP %d", op, resp.StatusCode)
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // all callers pass plain structs; cannot fail
	}
	return string(b)
}
