"""Unit tests for the execution graph and the recorder."""

import numpy as np
import pytest

from repro import ClusterApp, clmpi
from repro.analysis import ExecutionGraph, Sanitizer
from repro.analysis import graph as G
from repro.systems import cichlid


class TestExecutionGraph:
    def test_topological_ancestors(self):
        g = ExecutionGraph()
        a, b, c, d = (g.add_node("command", x) for x in "abcd")
        g.add_hb(a.nid, b.nid)
        g.add_hb(b.nid, c.nid)
        bits = g.ancestor_bits()
        assert g.happens_before(a.nid, c.nid, bits)       # transitive
        assert g.happens_before(b.nid, c.nid, bits)
        assert not g.happens_before(c.nid, a.nid, bits)   # no inversion
        assert not g.happens_before(a.nid, d.nid, bits)   # disconnected

    def test_edges_must_follow_creation_order(self):
        g = ExecutionGraph()
        a = g.add_node("command", "a")
        b = g.add_node("command", "b")
        with pytest.raises(ValueError):
            g.add_hb(b.nid, a.nid)

    def test_none_and_self_edges_ignored(self):
        g = ExecutionGraph()
        a = g.add_node("command", "a")
        g.add_hb(None, a.nid)
        g.add_hb(a.nid, a.nid)
        assert g.preds[a.nid] == []

    def test_successors_invert_preds(self):
        g = ExecutionGraph()
        a, b, c = (g.add_node("command", x) for x in "abc")
        g.add_hb(a.nid, b.nid)
        g.add_hb(a.nid, c.nid)
        assert g.successors()[a.nid] == [b.nid, c.nid]


class TestRecorderGraph:
    def _run(self, main, nodes=2, **app_kw):
        app = ClusterApp(cichlid(), nodes, **app_kw)
        with Sanitizer(app) as san:
            results = app.run(main)
        return san, results

    def test_wait_list_is_happens_before(self):
        """A wait_for edge orders two commands on different queues."""
        def main(ctx):
            q1, q2 = ctx.queue(), ctx.queue()
            buf = ctx.ocl.create_buffer(64)
            host = np.zeros(64, np.uint8)
            e1 = yield from q1.enqueue_write_buffer(buf, False, 0, 64, host)
            yield from q2.enqueue_read_buffer(buf, False, 0, 64, host,
                                              wait_for=(e1,))
            yield from q1.finish()
            yield from q2.finish()

        san, _ = self._run(main, nodes=1)
        assert san.report.ok, san.report.render()
        rec = san.recorder
        cmds = [n for n in rec.graph.nodes if n.kind == G.COMMAND]
        write = next(n for n in cmds if n.label.startswith("write"))
        read = next(n for n in cmds if n.label.startswith("read"))
        bits = rec.graph.ancestor_bits()
        assert rec.graph.happens_before(write.nid, read.nid, bits)

    def test_in_order_queue_is_happens_before(self):
        def main(ctx):
            q = ctx.queue()
            buf = ctx.ocl.create_buffer(64)
            host = np.zeros(64, np.uint8)
            yield from q.enqueue_write_buffer(buf, False, 0, 64, host)
            yield from q.enqueue_read_buffer(buf, False, 0, 64, host)
            yield from q.finish()

        san, _ = self._run(main, nodes=1)
        assert san.report.ok, san.report.render()
        rec = san.recorder
        cmds = [n for n in rec.graph.nodes if n.kind == G.COMMAND]
        bits = rec.graph.ancestor_bits()
        assert rec.graph.happens_before(cmds[0].nid, cmds[1].nid, bits)

    def test_host_sync_orders_across_queues(self):
        """finish() on q1 orders later q2 commands after q1's work."""
        def main(ctx):
            q1, q2 = ctx.queue(), ctx.queue()
            buf = ctx.ocl.create_buffer(64)
            host = np.zeros(64, np.uint8)
            yield from q1.enqueue_write_buffer(buf, False, 0, 64, host)
            yield from q1.finish()     # host sync point
            yield from q2.enqueue_read_buffer(buf, False, 0, 64, host)
            yield from q2.finish()

        san, _ = self._run(main, nodes=1)
        assert san.report.ok, san.report.render()
        rec = san.recorder
        assert any(n.kind == G.SYNC for n in rec.graph.nodes)

    def test_mpi_ops_attributed_to_commands(self):
        """clMPI transfer commands own the MPI ops they post."""
        def main(ctx):
            q = ctx.queue()
            buf = ctx.ocl.create_buffer(4096)
            if ctx.rank == 0:
                yield from clmpi.enqueue_send_buffer(
                    q, buf, False, 0, 4096, 1, 0, ctx.comm)
            else:
                yield from clmpi.enqueue_recv_buffer(
                    q, buf, False, 0, 4096, 0, 0, ctx.comm)
            yield from q.finish()

        san, _ = self._run(main)
        rec = san.recorder
        ops = [n for n in rec.graph.nodes
               if n.kind in (G.MPI_SEND, G.MPI_RECV)]
        assert ops and all(o.parent is not None for o in ops)
        parents = {rec.node(o.parent).label for o in ops}
        assert any(p.startswith("clmpi.") for p in parents)

    @pytest.mark.parametrize("nbytes, blocks", [
        pytest.param(4096, None, id="4096"),
        pytest.param(1 << 20, None, id="1048576"),
        *(pytest.param(16 << 20, k, id=f"16777216-pipelined{k}")
          for k in range(1, 5))])
    def test_clmpi_send_keeps_its_command_as_parent(self, nbytes, blocks):
        """Every MPI operation a clMPI command posts is attributed to
        that very command — not to the command before it on the same
        in-order queue — and the engine choice is noted on it, for an
        eager message, a rendezvous one, and a pipelined transfer of 1–4
        blocks, whose sends the ``clmpi.pipe.wire`` process posts."""
        def main(ctx):
            q = ctx.queue()
            buf = ctx.ocl.create_buffer(nbytes)
            host = np.zeros(nbytes, np.uint8)
            yield from q.enqueue_write_buffer(buf, False, 0, nbytes, host)
            if ctx.rank == 0:
                yield from clmpi.enqueue_send_buffer(
                    q, buf, False, 0, nbytes, 1, 7, ctx.comm)
            else:
                yield from clmpi.enqueue_recv_buffer(
                    q, buf, False, 0, nbytes, 0, 7, ctx.comm)
            yield from q.finish()

        forced = ({} if blocks is None else
                  {"force_mode": "pipelined",
                   "force_block": -(-nbytes // blocks)})
        san, _ = self._run(main, **forced)
        assert san.report.ok, san.report.render()
        rec = san.recorder
        ops = [n for n in rec.graph.nodes
               if n.kind in (G.MPI_SEND, G.MPI_RECV)]
        owners = {0: "clmpi.send->r1 t7", 1: "clmpi.recv<-r0 t7"}
        assert {o.extra["rank"] for o in ops} == {0, 1}
        if blocks is not None:
            assert len(ops) == 2 * blocks
        for op in ops:
            parent = rec.node(op.parent)
            assert parent.kind == G.COMMAND
            assert parent.label == owners[op.extra["rank"]], op.label
            assert "engine" in parent.extra

    def test_stats_populated(self):
        def main(ctx):
            yield from ctx.comm.barrier()

        san, _ = self._run(main)
        assert san.report.stats["nodes"] > 0
        assert san.report.stats["requests"] > 0
