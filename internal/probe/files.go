package probe

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
)

// ArtifactWriter writes artifact files and records each one, with its
// digest, in Man when a manifest is being built. The first error sticks:
// later writes are skipped and Err keeps it, so a run of writes needs one
// check at the end.
type ArtifactWriter struct {
	Man *Manifest
	// Written lists the paths written, in order.
	Written []string
	Err     error
}

// Write writes content to path and records it under the logical name.
func (a *ArtifactWriter) Write(name, path string, content []byte) {
	if a.Err != nil {
		return
	}
	if a.Err = os.WriteFile(path, content, 0o644); a.Err != nil {
		return
	}
	if a.Man != nil {
		a.Man.AddArtifact(name, path, content)
	}
	a.Written = append(a.Written, path)
}

// Render renders an artifact in memory, so the manifest digests exactly
// the bytes written, then writes it like Write.
func (a *ArtifactWriter) Render(name, path string, render func(io.Writer) error) {
	if a.Err != nil {
		return
	}
	var buf bytes.Buffer
	if a.Err = render(&buf); a.Err == nil {
		a.Write(name, path, buf.Bytes())
	}
}

// EmitFiles renders and writes the probe's enabled artifacts, choosing
// the format from the file extension: ".ndjson" selects newline-
// delimited JSON, anything else selects CSV for metrics and Chrome
// trace-event JSON for traces. Empty paths skip the artifact. When man
// is non-nil every written file is recorded in it with its digest.
func EmitFiles(p *Probe, metricsPath, tracePath string, man *Manifest) error {
	a := ArtifactWriter{Man: man}
	if metricsPath != "" {
		s := p.Sampler()
		if s == nil {
			return fmt.Errorf("probe: metrics requested but sampling disabled")
		}
		render := s.WriteCSV
		if strings.HasSuffix(metricsPath, ".ndjson") {
			render = s.WriteNDJSON
		}
		a.Render("metrics", metricsPath, render)
	}
	if tracePath != "" && a.Err == nil {
		t := p.Tracer()
		if t == nil {
			return fmt.Errorf("probe: trace requested but tracing disabled")
		}
		render := t.WriteChrome
		if strings.HasSuffix(tracePath, ".ndjson") {
			render = t.WriteNDJSON
		}
		a.Render("trace", tracePath, render)
	}
	return a.Err
}

// WriteManifestFile serializes the manifest to path.
func WriteManifestFile(man *Manifest, path string) error {
	var buf bytes.Buffer
	if err := man.WriteJSON(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
