"""The query server: contract enforcement, tiering, transports.

Covers the dispatcher against every error code in the taxonomy, the
surrogate-first/exact-fallback tiering with its provenance footer, the
**bitwise** agreement of the exact tier with the public scalar APIs
(the service must never invent a third set of physics), and both
asyncio transports driven through injected streams.
"""

import asyncio
import json
import math

import pytest

from repro import perf
from repro.cache import model_schema_hash
from repro.device.corners import Corner
from repro.device.mosfet import Polarity
from repro.scaling.roadmap import node_by_name
from repro.scaling.subvth import optimize_doping_for_length
from repro.service import DesignSpaceService, serve_stdio
from repro.service.contract import ALL_METRICS, PROTOCOL_VERSION
from repro.service.exact import corner_snm_vmin, exact_design, exact_point
from repro.service.server import _handle_http_client
from repro.service.surrogate import SURROGATE_TOL_REL

NODE = node_by_name("65nm")

#: An interior point of the conftest service grid (l_ratio 1.75).
IN_HULL = {"node": "65nm", "l_poly_nm": 1.75 * NODE.l_poly_nm,
           "ioff_target_a_per_um": 10.0 ** -10.3, "vdd_v": 0.28}

#: Same design point, but a supply off the grid's V_dd axis — inside
#: the exact tier's domain, so it answers via the fallback.
OFF_GRID = dict(IN_HULL, vdd_v=0.45)


@pytest.fixture(scope="module")
def service(service_surrogate):
    return DesignSpaceService(service_surrogate)


@pytest.fixture(scope="module")
def exact_only():
    return DesignSpaceService(surrogate=None)


class TestInfo:
    def test_info_reports_grid_and_bounds(self, service, service_spec):
        response = service.handle({"query": "info"})
        assert response["ok"] is True
        assert response["protocol"] == PROTOCOL_VERSION
        assert response["schema_hash"] == model_schema_hash()
        assert response["grid"]["grid_id"] == service_spec.grid_id()
        assert response["grid"]["axes"] == service_spec.to_meta()
        assert response["metrics"] == list(ALL_METRICS)
        bounds = response["error_bounds_rel"]
        assert bounds and all(bounds[m] <= SURROGATE_TOL_REL
                              for m in bounds)

    def test_exact_only_service_has_no_grid(self, exact_only):
        response = exact_only.handle({"query": "info"})
        assert response["ok"] is True
        assert response["grid"] is None
        assert response["error_bounds_rel"] is None


class TestMetricsQuery:
    def test_warm_query_answers_from_surrogate(self, service,
                                               service_spec):
        response = service.handle({"query": "metrics", **IN_HULL})
        assert response["ok"] is True
        assert sorted(response["values"]) == sorted(ALL_METRICS)
        assert all(isinstance(v, float) for v in
                   response["values"].values())
        prov = response["provenance"]
        assert prov["source"] == "surrogate"
        assert prov["grid_id"] == service_spec.grid_id()
        assert prov["schema_hash"] == model_schema_hash()
        assert prov["protocol"] == PROTOCOL_VERSION
        assert all(prov["error_bound_rel"][m] <= SURROGATE_TOL_REL
                   for m in ALL_METRICS)

    def test_metrics_subset(self, service):
        response = service.handle({"query": "metrics", **IN_HULL,
                                   "metrics": ["vth_v", "vmin_v"]})
        assert sorted(response["values"]) == ["vmin_v", "vth_v"]
        assert sorted(response["provenance"]["error_bound_rel"]) == [
            "vmin_v", "vth_v"]

    def test_off_grid_point_falls_back_to_exact_bitwise(self, service):
        """An in-domain point the grid does not cover answers from the
        exact tier — bitwise the values `exact_point` computes."""
        response = service.handle({"query": "metrics", **OFF_GRID})
        assert response["ok"] is True
        prov = response["provenance"]
        assert prov["source"] == "exact"
        assert prov["grid_id"] is None
        assert prov["error_bound_rel"] is None
        oracle = exact_point(NODE, OFF_GRID["l_poly_nm"],
                             OFF_GRID["ioff_target_a_per_um"],
                             OFF_GRID["vdd_v"])
        for metric in ALL_METRICS:
            assert response["values"][metric] == oracle[metric], metric

    def test_surrogate_agrees_with_exact_within_bound(self, service):
        """The served interpolation honours its recorded bound at an
        arbitrary interior point (not a validation midpoint)."""
        request = dict(IN_HULL, l_poly_nm=1.62 * NODE.l_poly_nm,
                       vdd_v=0.273)
        response = service.handle({"query": "metrics", **request})
        assert response["provenance"]["source"] == "surrogate"
        oracle = exact_point(NODE, request["l_poly_nm"],
                             request["ioff_target_a_per_um"],
                             request["vdd_v"])
        for metric in ALL_METRICS:
            rel = (abs(response["values"][metric] - oracle[metric])
                   / abs(oracle[metric]))
            assert rel <= 2.0 * SURROGATE_TOL_REL, (metric, rel)

    def test_id_echoed(self, service):
        response = service.handle({"query": "metrics", **IN_HULL,
                                   "id": 42})
        assert response["ok"] is True and response["id"] == 42


class TestExactTierParity:
    def test_joint_solve_equals_per_polarity_scalar_api(self):
        """`exact_design` solves NFET and PFET as one batched group
        stack; cold lanes are independent, so each winner is bitwise
        the device the public scalar API returns on its own."""
        l_poly_nm = 1.75 * NODE.l_poly_nm
        target = 10.0 ** -10.3
        design = exact_design(NODE, l_poly_nm, target)
        n_oracle = optimize_doping_for_length(
            NODE, l_poly_nm, ioff_target=target)
        p_oracle = optimize_doping_for_length(
            NODE, l_poly_nm, ioff_target=target,
            polarity=Polarity.PFET, width_um=2.0)
        assert design.nfet.profile.n_sub_cm3 == n_oracle.profile.n_sub_cm3
        assert (design.nfet.profile.n_p_halo_cm3
                == n_oracle.profile.n_p_halo_cm3)
        assert design.pfet.profile.n_sub_cm3 == p_oracle.profile.n_sub_cm3
        assert (design.pfet.profile.n_p_halo_cm3
                == p_oracle.profile.n_p_halo_cm3)


class TestErrorTaxonomy:
    def test_malformed_json(self, service):
        response = service.handle_line("{not json")
        assert response == {"ok": False, "error": "bad_request",
                            "message": response["message"]}
        assert "malformed JSON" in response["message"]

    def test_non_object_request(self, service):
        assert service.handle(42)["error"] == "bad_request"

    def test_unknown_query(self, service):
        response = service.handle({"query": "frobnicate"})
        assert response["error"] == "unknown_query"

    def test_unknown_node(self, service):
        response = service.handle(
            {"query": "metrics", **dict(IN_HULL, node="28nm")})
        assert response["error"] == "unknown_node"
        assert "28nm" in response["message"]

    def test_unknown_metric(self, service):
        response = service.handle({"query": "metrics", **IN_HULL,
                                   "metrics": ["iddq"]})
        assert response["error"] == "unknown_metric"

    def test_missing_required_field(self, service):
        request = {k: v for k, v in IN_HULL.items() if k != "vdd_v"}
        response = service.handle({"query": "metrics", **request})
        assert response["error"] == "bad_request"
        assert "vdd_v" in response["message"]

    def test_mistyped_field(self, service):
        response = service.handle(
            {"query": "metrics", **dict(IN_HULL, l_poly_nm="80")})
        assert response["error"] == "bad_request"

    def test_bool_is_not_a_number(self, service):
        response = service.handle(
            {"query": "metrics", **dict(IN_HULL, vdd_v=True)})
        assert response["error"] == "bad_request"

    def test_unknown_field_rejected(self, service):
        response = service.handle({"query": "metrics", **IN_HULL,
                                   "vddv": 0.3})
        assert response["error"] == "bad_request"
        assert "vddv" in response["message"]

    def test_stale_schema_pin(self, service):
        response = service.handle({"query": "metrics", **IN_HULL,
                                   "schema_hash": "0" * 16})
        assert response["error"] == "stale_schema"
        current = service.handle({"query": "metrics", **IN_HULL,
                                  "schema_hash": model_schema_hash()})
        assert current["ok"] is True

    def test_out_of_hull(self, service):
        response = service.handle(
            {"query": "metrics",
             **dict(IN_HULL, l_poly_nm=0.5 * NODE.l_poly_nm)})
        assert response["error"] == "out_of_hull"

    def test_id_echoed_on_errors(self, service):
        response = service.handle({"query": "frobnicate", "id": "q7"})
        assert response["id"] == "q7"

    def test_errors_bump_the_counter(self, service):
        perf.reset()
        service.handle({"query": "frobnicate"})
        counts = perf.snapshot()
        assert counts["service.queries"] == 1
        assert counts["service.errors"] == 1


class TestFlavourMenu:
    def test_menu_spans_tiers_with_mixed_provenance(self, service):
        """rvt sits on the grid; the x10 lvt and x0.1 hvt targets
        leave the grid's target axis but stay in-domain, so they
        answer exactly — the menu's provenance says 'mixed'."""
        response = service.handle({"query": "flavour_menu", **IN_HULL,
                                   "metrics": ["ioff_a_per_um",
                                               "vth_v"]})
        assert response["ok"] is True
        flavours = response["flavours"]
        assert sorted(flavours) == ["hvt", "lvt", "rvt"]
        base = IN_HULL["ioff_target_a_per_um"]
        assert flavours["lvt"]["ioff_target_a_per_um"] == 10.0 * base
        assert flavours["rvt"]["ioff_target_a_per_um"] == base
        assert flavours["hvt"]["ioff_target_a_per_um"] == 0.1 * base
        assert flavours["rvt"]["source"] == "surrogate"
        assert flavours["lvt"]["source"] == "exact"
        assert flavours["hvt"]["source"] == "exact"
        assert response["provenance"]["source"] == "mixed"
        # Lower leakage menu rung -> higher threshold.
        assert (flavours["hvt"]["values"]["vth_v"]
                > flavours["lvt"]["values"]["vth_v"])

    def test_menu_rejects_targets_leaving_the_domain(self, service):
        request = dict(IN_HULL, ioff_target_a_per_um=2e-13)
        response = service.handle({"query": "flavour_menu", **request})
        assert response["error"] == "out_of_hull"
        assert "hvt" in response["message"]


class TestSnmVmin:
    def test_tt_answers_from_surrogate(self, service):
        response = service.handle({"query": "snm_vmin", **IN_HULL})
        assert response["ok"] is True
        assert response["corner"] == "tt"
        assert sorted(response["values"]) == ["snm_mv", "vmin_v"]
        assert response["provenance"]["source"] == "surrogate"

    def test_shifted_corner_is_exact_and_bitwise(self, service):
        response = service.handle({"query": "snm_vmin", **IN_HULL,
                                   "corner": "ss"})
        assert response["ok"] is True
        assert response["corner"] == "ss"
        assert response["provenance"]["source"] == "exact"
        design = exact_design(NODE, IN_HULL["l_poly_nm"],
                              IN_HULL["ioff_target_a_per_um"])
        oracle = corner_snm_vmin(design, IN_HULL["vdd_v"], Corner.SS)
        for metric, value in oracle.items():
            expected = None if math.isnan(value) else value
            assert response["values"][metric] == expected

    def test_bad_corner(self, service):
        response = service.handle({"query": "snm_vmin", **IN_HULL,
                                   "corner": "sf"})
        assert response["error"] == "bad_request"


class _CollectingWriter:
    def __init__(self):
        self.chunks = []

    def write(self, data: bytes) -> None:
        self.chunks.append(data)

    async def drain(self) -> None:
        pass

    def lines(self):
        return b"".join(self.chunks).decode().splitlines()


class TestStdioTransport:
    def test_round_trip(self, service):
        writer = _CollectingWriter()

        async def drive():
            # The reader must be created inside the running loop.
            reader = asyncio.StreamReader()
            reader.feed_data(
                json.dumps({"query": "info"}).encode() + b"\n")
            reader.feed_data(b"\n")      # blank lines are skipped
            reader.feed_data(b"{broken\n")
            reader.feed_data(json.dumps(
                {"query": "metrics", **IN_HULL, "id": 1}).encode()
                + b"\n")
            reader.feed_eof()            # EOF terminates the loop
            await serve_stdio(service, reader=reader, writer=writer)

        asyncio.run(drive())
        responses = [json.loads(line) for line in writer.lines()]
        assert [r["ok"] for r in responses] == [True, False, True]
        assert responses[1]["error"] == "bad_request"
        assert responses[2]["id"] == 1
        assert responses[2]["provenance"]["source"] == "surrogate"

    @staticmethod
    def _serve(service, feed):
        """Replies of ``serve_stdio`` to what ``feed(reader)`` sends."""
        writer = _CollectingWriter()

        async def drive():
            reader = asyncio.StreamReader()
            await asyncio.gather(
                serve_stdio(service, reader=reader, writer=writer),
                feed(reader))

        asyncio.run(drive())
        return [json.loads(line) for line in writer.lines()]

    def test_invalid_utf8_line_is_a_bad_request(self, service):
        async def feed(reader):
            reader.feed_data(b"\xff\xfe\n")
            reader.feed_data(json.dumps({"query": "info", "id": 2}).encode()
                             + b"\n")
            reader.feed_eof()

        replies = self._serve(service, feed)
        assert [r["ok"] for r in replies] == [False, True]
        assert replies[0]["error"] == "bad_request"
        assert "UTF-8" in replies[0]["message"]
        assert replies[1]["id"] == 2

    def test_over_long_lines_get_one_reply_each(self, service):
        """A line over the 64 KiB stream limit answers bad_request once
        and is discarded through its newline — whether the newline is
        already buffered or still to come — so its tail is never read
        as a second request."""
        def info(n):
            return json.dumps({"query": "info", "id": n}).encode() + b"\n"

        async def feed(reader):
            reader.feed_data(json.dumps(
                {"query": "info", "id": "x" * 100_000}).encode() + b"\n")
            reader.feed_data(info(3))
            reader.feed_data(b"y" * 150_000)
            await asyncio.sleep(0)
            reader.feed_data(b"y" * 1000 + b"\n" + info(4))
            reader.feed_eof()

        replies = self._serve(service, feed)
        assert [r["ok"] for r in replies] == [False, True, False, True]
        assert {replies[0]["error"], replies[2]["error"]} == {"bad_request"}
        assert "longer than" in replies[0]["message"]
        assert [replies[1]["id"], replies[3]["id"]] == [3, 4]


    def test_regular_file_on_stdin(self, exact_only, tmp_path, capsys,
                                   monkeypatch):
        """``repro serve < requests.jsonl``: a regular file cannot back
        a pipe transport, so serving reads it in chunks into the same
        reader — same line handling, same over-long discard, one reply
        per line in order, then a normal exit at EOF."""
        def info(n):
            return json.dumps({"query": "info", "id": n}).encode() + b"\n"

        path = tmp_path / "requests.jsonl"
        path.write_bytes(info(1) + b"\xff\xfe\n" + b"z" * 100_000 + b"\n"
                         + info(2))
        capsys.readouterr()
        with open(path) as stdin:
            monkeypatch.setattr("sys.stdin", stdin)
            asyncio.run(serve_stdio(exact_only))
        replies = [json.loads(line)
                   for line in capsys.readouterr().out.splitlines()]
        assert [r["ok"] for r in replies] == [True, False, False, True]
        assert "UTF-8" in replies[1]["message"]
        assert "longer than" in replies[2]["message"]
        assert [replies[0]["id"], replies[3]["id"]] == [1, 2]


class TestHttpTransport:
    @staticmethod
    def _exchange(service, raw: bytes):
        writer = _CollectingWriter()
        writer.close = lambda: None

        async def drive():
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            reader.feed_eof()
            await _handle_http_client(service, reader, writer)

        asyncio.run(drive())
        head, _sep, body = b"".join(writer.chunks).partition(b"\r\n\r\n")
        return head.decode(), json.loads(body) if body else None

    def test_post_query(self, service):
        payload = json.dumps({"query": "metrics", **IN_HULL}).encode()
        head, body = self._exchange(
            service,
            b"POST /query HTTP/1.1\r\nContent-Length: "
            + str(len(payload)).encode() + b"\r\n\r\n" + payload)
        assert "200 OK" in head
        assert body["ok"] is True
        assert body["provenance"]["source"] == "surrogate"

    def test_post_bad_query_is_http_400(self, service):
        payload = b'{"query": "frobnicate"}'
        head, body = self._exchange(
            service,
            b"POST /query HTTP/1.1\r\nContent-Length: "
            + str(len(payload)).encode() + b"\r\n\r\n" + payload)
        assert "400 Bad Request" in head
        assert body["error"] == "unknown_query"

    def test_get_info(self, service):
        head, body = self._exchange(service,
                                    b"GET /info HTTP/1.1\r\n\r\n")
        assert "200 OK" in head
        assert body["ok"] is True and body["grid"] is not None

    def test_invalid_utf8_body_is_http_400_and_keeps_serving(self,
                                                            service):
        writer = _CollectingWriter()
        writer.close = lambda: None
        bodies = (b"\xff\xfe", json.dumps({"query": "info"}).encode())

        async def drive():
            reader = asyncio.StreamReader()
            for body in bodies:
                reader.feed_data(b"POST /query HTTP/1.1\r\nContent-Length: "
                                 + str(len(body)).encode() + b"\r\n\r\n"
                                 + body)
            reader.feed_eof()
            await _handle_http_client(service, reader, writer)

        asyncio.run(drive())
        replies = []
        rest = b"".join(writer.chunks)
        while rest:
            head, _sep, rest = rest.partition(b"\r\n\r\n")
            length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
            replies.append((head.decode(), json.loads(rest[:length])))
            rest = rest[length:]
        assert len(replies) == 2
        assert "400 Bad Request" in replies[0][0]
        assert replies[0][1]["error"] == "bad_request"
        assert "200 OK" in replies[1][0] and replies[1][1]["ok"] is True

    @staticmethod
    def _replies(service, raw: bytes) -> list[tuple[str, dict]]:
        """Every ``(head, body)`` reply on one connection fed ``raw``."""
        writer = _CollectingWriter()
        writer.close = lambda: None

        async def drive():
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            reader.feed_eof()
            await _handle_http_client(service, reader, writer)

        asyncio.run(drive())
        replies = []
        rest = b"".join(writer.chunks)
        while rest:
            head, _sep, rest = rest.partition(b"\r\n\r\n")
            length = int(head.split(b"Content-Length: ")[1].split(b"\r\n")[0])
            replies.append((head.decode(), json.loads(rest[:length])))
            rest = rest[length:]
        return replies

    @pytest.mark.parametrize("value", [b"abc", b"-5", b"1e3", b"", b"\xb2"])
    def test_malformed_content_length_is_one_400_then_close(self, service,
                                                            value):
        info = json.dumps({"query": "info"}).encode()
        replies = self._replies(
            service,
            b"POST /query HTTP/1.1\r\nContent-Length: " + value
            + b"\r\n\r\n" + info
            + b"GET /info HTTP/1.1\r\n\r\n")
        assert len(replies) == 1
        head, body = replies[0]
        assert "400 Bad Request" in head and "Connection: close" in head
        assert body["error"] == "bad_request"
        assert "Content-Length" in body["message"]

    @pytest.mark.parametrize("value", [None, b"9" * 5000],
                             ids=["body-length", "5000-digits"])
    def test_over_limit_body_is_one_413_then_close(self, service, value):
        """A body over the limit is refused whole: its tail is never
        parsed as a second request.  A length too long for int() gets
        the same reply."""
        limit = 1 << 20
        tail = b"GET /info HTTP/1.1\r\n\r\n"
        body = b"x" * limit + tail
        if value is None:
            value = str(len(body)).encode()
        replies = self._replies(
            service,
            b"POST /query HTTP/1.1\r\nContent-Length: "
            + value + b"\r\n\r\n" + body)
        assert len(replies) == 1
        head, envelope = replies[0]
        assert "413 Payload Too Large" in head
        assert "Connection: close" in head
        assert envelope["error"] == "bad_request"
        assert str(limit) in envelope["message"]

    def test_zero_padded_content_length_frames_the_body(self, service):
        payload = json.dumps({"query": "info"}).encode()
        replies = self._replies(
            service,
            b"POST /query HTTP/1.1\r\nContent-Length: " + b"0" * 5000
            + str(len(payload)).encode() + b"\r\n\r\n" + payload)
        assert len(replies) == 1
        assert "200 OK" in replies[0][0] and replies[0][1]["ok"] is True

    def test_unknown_target_is_404(self, service):
        head, body = self._exchange(service,
                                    b"GET /nope HTTP/1.1\r\n\r\n")
        assert "404 Not Found" in head
        assert body["error"] == "bad_request"
