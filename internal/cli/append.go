package cli

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/seq"
)

// AppendConfig mirrors the flags of `gsgrow append`: stream a local file
// into a running mining service's append endpoint.
type AppendConfig struct {
	Addr   string // server address, e.g. "localhost:8372" (scheme optional)
	DB     string // target database name
	Format string // tokens, chars, spmf, or ndjson (raw pass-through)
}

// Append reads sequences from in and streams them to the server as NDJSON
// append records. For the file formats (tokens/chars/spmf) each parsed
// sequence becomes one record carrying its label, so labeled sequences
// upsert into their server-side counterparts — the live-trace workflow:
// re-sending a label appends new events to that sequence. The "ndjson"
// format passes the body through untouched for callers that already speak
// the wire format. The server's response summary is written to out.
func Append(cfg AppendConfig, in io.Reader, out io.Writer) error {
	if cfg.Addr == "" {
		return fmt.Errorf("missing server address")
	}
	if cfg.DB == "" {
		return fmt.Errorf("missing database name")
	}
	base := cfg.Addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	url := fmt.Sprintf("%s/v1/databases/%s/append", base, cfg.DB)

	var body io.Reader
	if cfg.Format == "ndjson" {
		body = in
	} else {
		f, err := seq.ParseFormat(cfg.Format)
		if err != nil {
			return err
		}
		db, err := seq.Parse(in, f)
		if err != nil {
			return err
		}
		// Stream the NDJSON encoding through a pipe: one record is in
		// flight at a time and the upload starts immediately, instead of
		// materializing the whole re-encoded delta next to the parsed DB.
		pr, pw := io.Pipe()
		go func() {
			enc := json.NewEncoder(pw)
			for i, s := range db.Seqs {
				if len(s) == 0 {
					continue // the server rejects event-less records
				}
				events := make([]string, len(s))
				for j, e := range s {
					events[j] = db.Dict.Name(e)
				}
				label := ""
				if i < len(db.Labels) {
					label = db.Labels[i]
				}
				if err := enc.Encode(map[string]any{"label": label, "events": events}); err != nil {
					pw.CloseWithError(err)
					return
				}
			}
			pw.Close()
		}()
		body = pr
	}

	resp, err := http.Post(url, "application/x-ndjson", body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("append: server returned %s: %s", resp.Status, strings.TrimSpace(string(payload)))
	}
	fmt.Fprintf(out, "%s", payload)
	return nil
}
