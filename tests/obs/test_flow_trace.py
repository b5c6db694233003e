"""Causal flow tracing: send->recv pairs and pipelined stage chains are
connected end-to-end in the exported Chrome trace."""

import json

import numpy as np
import pytest

from repro.launcher import ClusterApp
from repro.sim import Tracer


def _chrome_events(tracer, tmp_path):
    path = tmp_path / "trace.json"
    tracer.save_chrome_trace(path)
    return json.loads(path.read_text())["traceEvents"]


class TestTracerFlows:
    def test_new_flow_ids_unique_nonzero(self):
        tr = Tracer()
        ids = [tr.new_flow() for _ in range(5)]
        assert len(set(ids)) == 5 and all(ids)

    def test_flows_grouping_and_order(self):
        tr = Tracer()
        f1, f2 = tr.new_flow(), tr.new_flow()
        tr.record("b", "late", 1.0, 2.0, flow=f1)
        tr.record("a", "early", 0.0, 1.0, flow=f1)
        tr.record("c", "solo", 0.0, 1.0, flow=f2)
        tr.record("d", "plain", 0.0, 1.0)
        chains = tr.flows()
        assert list(chains) == [f1, f2]
        assert [r.label for r in chains[f1]] == ["early", "late"]

    def test_flow_events_emitted_for_chains(self, tmp_path):
        tr = Tracer()
        fid = tr.new_flow()
        tr.record("a", "x", 0.0, 1.0, "d2h", flow=fid)
        tr.record("b", "y", 1.0, 2.0, "net", flow=fid)
        tr.record("c", "z", 2.0, 3.0, "h2d", flow=fid)
        events = _chrome_events(tr, tmp_path)
        flow_evs = [e for e in events if e.get("cat") == "flow"]
        assert [e["ph"] for e in flow_evs] == ["s", "t", "f"]
        assert all(e["id"] == fid for e in flow_evs)
        assert flow_evs[-1]["bp"] == "e"

    def test_single_record_flow_emits_no_arrows(self, tmp_path):
        tr = Tracer()
        tr.record("a", "x", 0.0, 1.0, "net", flow=tr.new_flow())
        events = _chrome_events(tr, tmp_path)
        assert not [e for e in events if e.get("cat") == "flow"]

    def test_slice_args_carry_span_and_flow(self, tmp_path):
        tr = Tracer()
        fid = tr.new_flow()
        tr.record("a", "x", 0.0, 1.0, "net", flow=fid)
        tr.record("a", "plain", 1.0, 2.0, "net")
        events = _chrome_events(tr, tmp_path)
        slices = {e["name"]: e for e in events if e["ph"] == "X"}
        assert slices["x"]["args"]["flow"] == fid
        assert slices["x"]["args"]["span"] == 1
        assert "flow" not in slices["plain"]["args"]
        assert slices["plain"]["args"]["span"] == 2


def _pingpong(ctx, nbytes, mode):
    from repro import clmpi

    q = ctx.queue(name=f"r{ctx.rank}.q")
    buf = ctx.ocl.create_buffer(nbytes, name=f"b{ctx.rank}")
    yield from ctx.comm.barrier()
    if ctx.rank == 0:
        yield from clmpi.enqueue_send_buffer(
            q, buf, False, 0, nbytes, dest=1, tag=7, comm=ctx.comm)
    else:
        yield from clmpi.enqueue_recv_buffer(
            q, buf, False, 0, nbytes, source=0, tag=7, comm=ctx.comm)
    yield from q.finish()


class TestEndToEndFlows:
    @pytest.fixture(params=["pinned", "pipelined"])
    def traced_transfer(self, request, ricc_preset):
        # RICC's policy stages through pinned buffers, so both engines
        # exercise the full d2h -> net -> h2d chain.
        app = ClusterApp(ricc_preset, 2, trace=True,
                         force_mode=request.param,
                         force_block=(1 << 18 if request.param ==
                                      "pipelined" else None))
        app.run(_pingpong, 1 << 20, request.param)
        return request.param, app.tracer

    def test_stage_chains_connected(self, traced_transfer, tmp_path):
        """Every d2h staging copy chains through the wire to the
        receiver's h2d drain via one flow id."""
        mode, tracer = traced_transfer
        chains = tracer.flows()
        staged = [c for c in chains.values()
                  if {"d2h", "net", "h2d"} <=
                  {r.category for r in c}]
        # pinned: one chain for the whole payload; pipelined: one per
        # block (1 MiB / 256 KiB = 4).
        assert len(staged) == (1 if mode == "pinned" else 4)
        for chain in staged:
            cats = [r.category for r in chain]
            assert cats.index("d2h") < cats.index("net") < \
                cats.index("h2d")
            # sender-side staging, receiver-side drain
            assert chain[0].lane.startswith("node0")
            assert chain[-1].lane.startswith("node1")

    def test_chrome_export_links_chains(self, traced_transfer, tmp_path):
        """JSON-loading check: each multi-record chain has exactly one
        flow-start and one flow-finish at the chain's endpoints."""
        _, tracer = traced_transfer
        events = _chrome_events(tracer, tmp_path)
        flow_evs = [e for e in events if e.get("cat") == "flow"]
        assert flow_evs, "no flow arrows exported"
        by_id = {}
        for e in flow_evs:
            by_id.setdefault(e["id"], []).append(e["ph"])
        for fid, phases in by_id.items():
            assert phases[0] == "s" and phases[-1] == "f", \
                f"flow {fid} not properly terminated: {phases}"
            assert set(phases[1:-1]) <= {"t"}

    def test_every_traced_mpi_message_has_flow(self, world2):
        """MPI-level sends auto-allocate a flow; the receiver-side
        marker makes every send->recv pair a linked chain."""
        tracer = world2.env.attach(Tracer())

        def main(comm):
            if comm.rank == 0:
                yield from comm.send(np.arange(64.0), 1, tag=1)
                yield from comm.send(np.arange(8.0), 1, tag=2)
            else:
                yield from comm.recv(np.zeros(64), 0, 1)
                yield from comm.recv(np.zeros(8), 0, 2)

        world2.run(main)
        wire = [r for r in tracer.records if r.category == "net"]
        assert wire and all(r.flow for r in wire)
        for fid, chain in tracer.flows().items():
            lanes = {r.lane for r in chain}
            # sender-side wire record + receiver-side recv marker
            assert any(l.startswith("node0") for l in lanes)
            assert any(l.startswith("node1") for l in lanes), \
                f"flow {fid} never reached the receiver: {lanes}"

    def test_recv_marker_label_and_meta(self, world2):
        tracer = world2.env.attach(Tracer())

        def main(comm):
            if comm.rank == 0:
                yield from comm.send(np.arange(16.0), 1, tag=9)
            else:
                yield from comm.recv(np.zeros(16), 0, 9)

        world2.run(main)
        markers = [r for r in tracer.records
                   if r.lane == "node1.mpi"]
        assert len(markers) == 1
        assert markers[0].label == "recv t9"
        assert markers[0].meta["src"] == 0
        assert markers[0].flow


class TestUntracedFlows:
    def test_untraced_run_allocates_nothing(self, cichlid_preset):
        app = ClusterApp(cichlid_preset, 2)
        app.run(_pingpong, 1 << 18, "pinned")
        assert app.tracer is None  # and no crash threading flow=0
