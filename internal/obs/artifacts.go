package obs

import (
	"fmt"
	"io"

	"ownsim/internal/fabric"
	"ownsim/internal/plot"
	"ownsim/internal/probe"
)

// Artifact emission behind Session.Emit: the per-component energy
// attribution CSV, the congestion/energy heatmaps, the latency
// breakdown, the token-fairness set and the state dump. Every file goes
// through one probe.ArtifactWriter, which builds it in memory first so
// the manifest digests exactly the bytes written; content depends only
// on simulation state, never on the live telemetry server.

// EmitEnergyCSV writes the network's per-component energy attribution
// (power.Meter.WriteEnergyCSV over the simulated cycles) to path and
// records it in the manifest when one is being built.
func EmitEnergyCSV(n *fabric.Network, path string, man *probe.Manifest) error {
	if n.Meter == nil {
		return fmt.Errorf("obs: energy attribution requested but the network has no power meter")
	}
	a := probe.ArtifactWriter{Man: man}
	a.Render("energy", path, func(w io.Writer) error { return n.Meter.WriteEnergyCSV(w, n.Eng.Cycle()) })
	return a.Err
}

// EmitHeatmaps writes the heatmap artifacts with the given path prefix
// and returns the files written:
//
//	<prefix>_congestion.csv/.svg — per-router stall counts (requires a
//	    per-component probe for per-router resolution);
//	<prefix>_energy.csv/.svg     — per-wireless-channel transmit energy,
//	    labelled with the channel's link-distance class (skipped when the
//	    network has no wireless channels).
func EmitHeatmaps(n *fabric.Network, prefix string, man *probe.Manifest) ([]string, error) {
	a := probe.ArtifactWriter{Man: man}
	congestion := &plot.Heatmap{
		Title:  fmt.Sprintf("%s: router congestion (credit+busy stalls)", n.Name),
		Labels: n.RouterLabels(),
		Values: n.CongestionValues(),
	}
	a.Render("congestion_heatmap", prefix+"_congestion.csv", congestion.WriteCSV)
	a.Write("congestion_heatmap_svg", prefix+"_congestion.svg", []byte(congestion.SVG()))

	m := n.Meter
	if m == nil || len(m.WirelessChanPJ) == 0 {
		return a.Written, a.Err
	}
	labels := make([]string, len(m.WirelessChanPJ))
	values := make([]float64, len(m.WirelessChanPJ))
	for i, pj := range m.WirelessChanPJ {
		class := m.ChannelClass(i)
		if class == "" {
			class = "unclassified"
		}
		labels[i] = fmt.Sprintf("ch%d/%s", i, class)
		values[i] = float64(pj)
	}
	energy := &plot.Heatmap{
		Title:  fmt.Sprintf("%s: wireless channel energy (pJ)", n.Name),
		Labels: labels,
		Values: values,
	}
	a.Render("energy_heatmap", prefix+"_energy.csv", energy.WriteCSV)
	a.Write("energy_heatmap_svg", prefix+"_energy.svg", []byte(energy.SVG()))
	return a.Written, a.Err
}

// EmitLatencyBreakdown writes the latency-attribution artifacts with
// the given path prefix and returns the files written:
//
//	<prefix>.csv    — per-phase cycle totals with the sum-identity total
//	    row (cmd/obscheck verifies the identity);
//	<prefix>.ndjson — the same breakdown as one JSON object per phase;
//	<prefix>.svg    — a stacked-bar figure of the phase shares.
//
// It requires a probe with span decomposition enabled (Options.Spans).
func EmitLatencyBreakdown(n *fabric.Network, prefix string, man *probe.Manifest) ([]string, error) {
	sp := n.Probe.Spans()
	if sp == nil {
		return nil, fmt.Errorf("obs: latency breakdown requested but span decomposition is not enabled")
	}
	a := probe.ArtifactWriter{Man: man}
	a.Render("latency_breakdown", prefix+".csv", sp.WriteCSV)
	a.Render("latency_breakdown_ndjson", prefix+".ndjson", sp.WriteNDJSON)

	labels := make([]string, probe.NumSpanPhases)
	values := make([]float64, probe.NumSpanPhases)
	for ph := probe.SpanPhase(0); ph < probe.NumSpanPhases; ph++ {
		labels[ph] = ph.String()
		values[ph] = float64(sp.PhaseCycles(ph))
	}
	bar := &plot.StackedBar{
		Title:  fmt.Sprintf("%s: latency breakdown (%d packets, %d cy)", n.Name, sp.Packets(), sp.LatencyCycles()),
		Labels: labels,
		Values: values,
	}
	a.Write("latency_breakdown_svg", prefix+".svg", []byte(bar.SVG()))
	return a.Written, a.Err
}

// EmitFairness writes the token-fairness artifacts with the given path
// prefix and returns the files written:
//
//	<prefix>_tiles.csv   — per-tile token acquisitions, wait totals and
//	    max single waits per medium kind;
//	<prefix>_jain.csv    — Jain's fairness index per shared channel over
//	    its active tiles (cmd/obscheck enforces the (0,1] bound);
//	<prefix>_heatmap.svg — per-tile total token-wait heatmap.
//
// It requires an installed flight recorder (the stall tracker feeds
// from the same hook that charges span token_wait, so these artifacts
// reconcile with the latency breakdown).
func EmitFairness(n *fabric.Network, prefix string, man *probe.Manifest) ([]string, error) {
	if n.FlightRec == nil || n.FlightRec.Stall == nil {
		return nil, fmt.Errorf("obs: token-fairness artifacts requested but no flight recorder is installed")
	}
	st := n.FlightRec.Stall
	a := probe.ArtifactWriter{Man: man}
	a.Render("token_fairness_tiles", prefix+"_tiles.csv", st.WriteTileCSV)
	a.Render("token_fairness_jain", prefix+"_jain.csv", st.WriteJainCSV)
	hm := &plot.Heatmap{
		Title:  fmt.Sprintf("%s: per-tile token wait (cy)", n.Name),
		Labels: st.TileLabels(),
		Values: st.TileWaitValues(),
	}
	a.Write("token_fairness_heatmap", prefix+"_heatmap.svg", []byte(hm.SVG()))
	return a.Written, a.Err
}

// EmitDump writes the end-of-run state dump with the given path prefix
// (<prefix>.ndjson plus the human-readable <prefix>.txt) and returns
// the files written. It requires an installed flight recorder.
func EmitDump(n *fabric.Network, prefix string, man *probe.Manifest) ([]string, error) {
	if n.FlightRec == nil {
		return nil, fmt.Errorf("obs: state dump requested but no flight recorder is installed")
	}
	snap := n.Snapshot("exit")
	a := probe.ArtifactWriter{Man: man}
	a.Render("state_dump", prefix+".ndjson", snap.WriteNDJSON)
	a.Render("state_dump_text", prefix+".txt", snap.WriteText)
	return a.Written, a.Err
}
