// Package httpx is BitDew's HTTP transfer back-end: repository content
// served over plain HTTP with Range support for resume, plus PUT uploads.
// The paper recommends HTTP/FTP for small, unique files (e.g. the BLAST
// query sequences of §5) where collaborative protocols pay more overhead
// than they recover.
package httpx

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"bitdew/internal/repository"
)

// Server serves a repository backend over HTTP at /data/<ref>.
type Server struct {
	backend repository.Backend
	lis     net.Listener
	srv     *http.Server
}

// NewServer starts an HTTP transfer server on addr.
func NewServer(backend repository.Backend, addr string) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("httpx: listen %s: %w", addr, err)
	}
	s := &Server{backend: backend, lis: lis}
	mux := http.NewServeMux()
	mux.HandleFunc("/data/", s.handle)
	s.srv = &http.Server{Handler: mux}
	go s.srv.Serve(lis)
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Close shuts the server down.
func (s *Server) Close() error { return s.srv.Close() }

func (s *Server) handle(w http.ResponseWriter, r *http.Request) {
	ref := strings.TrimPrefix(r.URL.Path, "/data/")
	if ref == "" {
		http.Error(w, "missing ref", http.StatusBadRequest)
		return
	}
	switch r.Method {
	case http.MethodHead, http.MethodGet:
		s.get(w, r, ref)
	case http.MethodPut:
		s.put(w, r, ref)
	case http.MethodDelete:
		if err := s.backend.Delete(ref); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
	}
}

// get serves ref from the backend's reader: size, Range and HEAD are
// http.ServeContent's, which copies straight from the reader to the
// connection (sendfile when the reader is a file).
func (s *Server) get(w http.ResponseWriter, r *http.Request, ref string) {
	content, _, err := repository.OpenReader(s.backend, ref)
	if err != nil {
		http.NotFound(w, r)
		return
	}
	defer content.Close()
	// Repository content is opaque; naming its type keeps ServeContent from
	// reading the head of it to guess one.
	w.Header().Set("Content-Type", "application/octet-stream")
	http.ServeContent(w, r, "", time.Time{}, content)
}

// put streams the request body into the backend's writer, sized by
// Content-Length. Content-Range "bytes <off>-*/*" resumes at off, which must
// be the stored size; absent means a whole-content upload, which replaces
// the ref only once the whole body has arrived.
func (s *Server) put(w http.ResponseWriter, r *http.Request, ref string) {
	var off int64
	if cr := r.Header.Get("Content-Range"); cr != "" {
		from, _, _ := strings.Cut(strings.TrimSpace(strings.TrimPrefix(cr, "bytes")), "-")
		var err error
		if off, err = strconv.ParseInt(from, 10, 64); err != nil || off < 0 {
			http.Error(w, "malformed Content-Range", http.StatusBadRequest)
			return
		}
		// A ranged upload from zero extends nothing, so nothing may be
		// there; past zero OpenWriter holds the offset against the size.
		if off == 0 {
			if cur, err := s.backend.Size(ref); err == nil && cur != 0 {
				http.Error(w, fmt.Sprintf("resume offset 0 != stored size %d", cur), http.StatusConflict)
				return
			}
		}
	}
	// A chunked body announces -1, which OpenWriter reads as unknown.
	dst, err := repository.OpenWriter(s.backend, ref, off, off+r.ContentLength)
	if errors.Is(err, repository.ErrOffset) {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer dst.Close()
	if _, err := io.Copy(dst, r.Body); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if err := dst.Commit(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// Client fetches and uploads repository content over HTTP.
type Client struct {
	hc *http.Client
}

// NewClient returns a transfer client with sane timeouts.
func NewClient() *Client {
	return &Client{hc: &http.Client{Timeout: 5 * time.Minute}}
}

func url(addr, ref string) string { return "http://" + addr + "/data/" + ref }

// Size returns the remote size of ref on addr.
func (c *Client) Size(addr, ref string) (int64, error) {
	resp, err := c.hc.Head(url(addr, ref))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("httpx: HEAD %s: %s", ref, resp.Status)
	}
	return strconv.ParseInt(resp.Header.Get("Content-Length"), 10, 64)
}

// Get downloads ref from addr starting at offset, writing payload to w and
// returning the number of bytes written.
func (c *Client) Get(addr, ref string, offset int64, w io.Writer) (int64, error) {
	req, err := http.NewRequest(http.MethodGet, url(addr, ref), nil)
	if err != nil {
		return 0, err
	}
	if offset > 0 {
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-", offset))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusPartialContent {
		return 0, fmt.Errorf("httpx: GET %s: %s", ref, resp.Status)
	}
	return io.Copy(w, resp.Body)
}

// Put uploads content as the whole of ref on addr. Content that can seek —
// a repository reader, a *bytes.Reader, a file — is sent with its length
// announced, so the server reserves room for it once.
func (c *Client) Put(addr, ref string, content io.Reader) error {
	return c.upload(addr, ref, "", content)
}

// Append uploads chunk at offset of ref (resume); offset must match the
// currently stored size.
func (c *Client) Append(addr, ref string, offset int64, chunk io.Reader) error {
	return c.upload(addr, ref, fmt.Sprintf("bytes %d-*/*", offset), chunk)
}

func (c *Client) upload(addr, ref, contentRange string, content io.Reader) error {
	req, err := http.NewRequest(http.MethodPut, url(addr, ref), content)
	if err != nil {
		return err
	}
	if err := announceLength(req, content); err != nil {
		return err
	}
	if contentRange != "" {
		req.Header.Set("Content-Range", contentRange)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("httpx: PUT %s: %s", ref, resp.Status)
	}
	return nil
}

// announceLength does for any seekable content what http.NewRequest does
// for the three reader types it knows: measure what is left to read, send it
// as Content-Length, and let the transport rewind the body to replay the
// request when a kept-alive connection turns out to be dead. The content
// stays the caller's to close.
func announceLength(req *http.Request, content io.Reader) error {
	s, ok := content.(io.Seeker)
	if !ok || req.GetBody != nil {
		return nil
	}
	start, err := s.Seek(0, io.SeekCurrent)
	if err != nil {
		return err
	}
	end, err := s.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	if end == start {
		req.Body, req.GetBody = http.NoBody, func() (io.ReadCloser, error) { return http.NoBody, nil }
		return nil
	}
	req.ContentLength = end - start
	req.GetBody = func() (io.ReadCloser, error) {
		_, err := s.Seek(start, io.SeekStart)
		return io.NopCloser(content), err
	}
	req.Body, err = req.GetBody()
	return err
}

// Delete removes ref on addr.
func (c *Client) Delete(addr, ref string) error {
	req, err := http.NewRequest(http.MethodDelete, url(addr, ref), nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("httpx: DELETE %s: %s", ref, resp.Status)
	}
	return nil
}
