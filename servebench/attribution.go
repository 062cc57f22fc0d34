package main

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"
	"time"
)

// serverLayer maps the names of the spans the server records in its
// request traces (codeserver, its producer pool and loader, and the
// driver) to the repository's layers.
var serverLayer = map[string]string{
	"compile": "codeserver", "run": "codeserver", "run_stream": "codeserver",
	"disk": "codeserver", "fill": "codeserver", "load": "codeserver",
	"frontend": "lang", "parse": "lang", "sema": "lang",
	"ssabuild": "ssabuild", "build": "ssabuild",
	"optimize": "opt", "passes": "opt",
	"verify": "core",
	"encode": "wire", "decode": "wire", "wire_decode_stream": "wire",
	"prepare": "interp", "compile_backend": "interp", "exec": "interp",
	"peer_fill": "cluster",
}

// layerOrder is the serving path's module order; the attribution table
// lists rows in it.
var layerOrder = []string{"lang", "ssabuild", "opt", "wire", "core", "interp", "cluster", "codeserver"}

// attribution is the traced run's account of mean client latency. Every
// row but the replay's is measured on the loaded server: the layers'
// self times come from the server's own request traces; unattributed is
// handler time that no server trace covers (routing, JSON, cluster
// forwarding); the residual is client time outside the handler (HTTP
// transport, the client, queueing). These rows add up to the mean
// client latency. The replay's rows split a layer's row further; they
// are timed uncontended after the loaded phase and are not part of the
// sum.
type attribution struct {
	requests     int
	clientMean   float64
	clientP50    float64
	layers       map[string]float64 // layer → mean self ms per request
	residual     float64            // mean client minus handler ms
	unattributed float64            // mean handler minus server trace ms
	replay       map[string]float64 // replay span → mean ms per replayed request
	replayed     int
}

// attribute accounts for the traced phase's requests. Client and
// handler spans have positive request IDs, server trace spans negative
// ones, replay spans those of the request they replay.
func attribute(spans []span, clientP50 float64, replayed int) attribution {
	a := attribution{clientP50: clientP50, layers: make(map[string]float64),
		replay: layerMeans(spans, replayed), replayed: replayed}
	self := selfTimes(spans)
	var client, handler, traces time.Duration
	for _, s := range spans {
		d := s.End - s.Start
		switch {
		case s.Name == "client.http":
			a.requests++
			client += d
		case strings.HasSuffix(s.Name, ".handler"):
			handler += d
		case s.Req < 0:
			name := strings.TrimPrefix(s.Name, "server.")
			layer, ok := serverLayer[name]
			if !ok {
				layer = "server." + name
			}
			a.layers[layer] += ms(self[s.ID])
			if s.Parent == 0 {
				traces += d
			}
		}
	}
	if a.requests == 0 {
		return a
	}
	n := float64(a.requests)
	a.clientMean = ms(client) / n
	a.residual = ms(client-handler) / n
	a.unattributed = ms(handler-traces) / n
	for k := range a.layers {
		a.layers[k] /= n
	}
	return a
}

func (a attribution) print(w io.Writer, workload string) {
	fmt.Fprintf(w, "attribution of client latency (%s): %d traced requests, mean %.4f ms, p50 %.4f ms; mean ms per request\n",
		workload, a.requests, a.clientMean, a.clientP50)
	row := func(name string, v float64, note string) {
		share := 0.0
		if a.clientMean > 0 {
			share = 100 * v / a.clientMean
		}
		fmt.Fprintf(w, "  %-28s %10.4f ms %6.1f%%  %s\n", name, v, share, note)
	}
	var rest []string
	for l := range a.layers {
		if !slices.Contains(layerOrder, l) {
			rest = append(rest, l)
		}
	}
	sort.Strings(rest)
	for _, l := range append(layerOrder, rest...) {
		if v, ok := a.layers[l]; ok {
			row(l, v, "server trace")
		}
		var sub []string
		for name := range a.replay {
			if strings.HasPrefix(name, l+".") {
				sub = append(sub, name)
			}
		}
		sort.Strings(sub)
		for _, name := range sub {
			fmt.Fprintf(w, "    %-26s %10.4f ms          replay, uncontended, per replayed request (%d)\n",
				name, a.replay[name], a.replayed)
		}
	}
	row("unattributed", a.unattributed, "handler time outside every server trace")
	row("codeserver.residual", a.residual, "client time outside the handler")
	total := a.unattributed + a.residual
	for _, v := range a.layers {
		total += v
	}
	row("sum of rows", total, "")
}

// layerMeans is each replay span name's total duration per replayed
// request, in ms.
func layerMeans(spans []span, replayed int) map[string]float64 {
	out := make(map[string]float64)
	if replayed == 0 {
		return out
	}
	for _, s := range spans {
		if s.Req <= 0 || s.Name == "replay" || s.Name == "client.http" || strings.HasSuffix(s.Name, ".handler") {
			continue
		}
		out[s.Name] += ms(s.End-s.Start) / float64(replayed)
	}
	return out
}

// serverTotals is each server trace span name's total duration, in ms.
func serverTotals(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for _, s := range spans {
		if s.Req < 0 {
			out[strings.TrimPrefix(s.Name, "server.")] += ms(s.End - s.Start)
		}
	}
	return out
}
