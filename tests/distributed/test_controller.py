"""The distributed controller speaks the local controller's protocol."""

import pytest

from repro.core.controller import LocalController
from repro.core.matcher import FXTMMatcher
from repro.distributed.cluster import DistributedTopKSystem
from repro.distributed.controller import DistributedController
from repro.distributed.faults import FaultPlan


STREAM = [
    "ADD ad-1 age in [18, 24] : 2.0 and state in {Indiana} : 1.0",
    "ADD ad-2 age in [30, 50] : 1.5",
    "ADD ad-3 state in {Indiana} : 0.5 BUDGET 100 WINDOW 5000",
    "MATCH 3 age: [20 .. 22], state: Indiana",
    "CANCEL ad-2",
    "MATCH 3 age: [35 .. 40]",
]


@pytest.fixture
def controller():
    system = DistributedTopKSystem(lambda: FXTMMatcher(prorate=True), node_count=3)
    return DistributedController(system)


class TestProtocol:
    def test_stream_processing(self, controller):
        responses = list(controller.run(STREAM))
        assert all(r.ok for r in responses)
        first_match = responses[3]
        assert [r.sid for r in first_match.results] == ["ad-1", "ad-3"]
        assert first_match.outcome is not None
        assert first_match.outcome.total_seconds > 0
        second_match = responses[5]
        assert second_match.results == []

    def test_identical_results_to_local_controller(self, controller):
        local = LocalController(FXTMMatcher(prorate=True))
        local_results = [r for r in local.run(STREAM)]
        distributed_results = [r for r in controller.run(STREAM)]
        for local_response, distributed_response in zip(local_results, distributed_results):
            assert local_response.ok == distributed_response.ok
            assert [r.sid for r in local_response.results] == [
                r.sid for r in distributed_response.results
            ]

    def test_subscriptions_actually_distributed(self, controller):
        list(controller.run(STREAM[:3]))
        sizes = [len(node) for node in controller.system.nodes]
        assert sum(sizes) == 3
        assert max(sizes) == 1  # round-robin over 3 nodes

    def test_parse_error_reported(self, controller):
        response = controller.submit("FROBNICATE everything")
        assert not response.ok
        assert controller.requests_failed == 1

    def test_cancel_unknown_reported(self, controller):
        response = controller.submit("CANCEL nobody")
        assert not response.ok
        assert "nobody" in response.error

    def test_comments_and_blanks_skipped(self, controller):
        responses = list(controller.run(["# comment", "", STREAM[0]]))
        assert len(responses) == 1
        assert responses[0].ok


class TestErrorPaths:
    """Failures surface as structured responses, never as exceptions."""

    @pytest.mark.parametrize(
        "line",
        [
            "FROBNICATE everything",
            "MATCH",  # missing k and event
            "MATCH zero age: 5",  # non-integer k
            "ADD",  # missing sid and predicate
            "ADD dangling",  # missing predicate
            "CANCEL",  # missing sid
            "MATCH 3 age [20",  # malformed event text
            "ADD x age in : 1.0",  # malformed predicate
        ],
    )
    def test_malformed_lines_reported_not_raised(self, controller, line):
        response = controller.submit(line)
        assert not response.ok
        assert response.error
        assert response.results == []

    @pytest.mark.parametrize(
        "line", ["MATCH 0 age: 5", "BATCH 0 age: 5 ; age: 6", "MATCH -3 age: 5"]
    )
    def test_non_positive_k_reported_and_stream_continues(self, controller, line):
        responses = list(controller.run([STREAM[0], line, "MATCH 1 age: [20 .. 22]"]))
        assert [r.ok for r in responses] == [True, False, True]
        assert "k must be >= 1" in responses[1].error
        assert [r.sid for r in responses[2].results] == ["ad-1"]
        assert controller.requests_failed == 1

    def test_failed_requests_counted(self, controller):
        for line in ["FROBNICATE", "CANCEL ghost", "MATCH"]:
            controller.submit(line)
        assert controller.requests_failed == 3

    def test_cancel_unknown_sid_reported(self, controller):
        response = controller.submit("CANCEL never-added")
        assert not response.ok
        assert "never-added" in response.error
        # The cluster is untouched and still serves requests.
        assert controller.submit(STREAM[0]).ok

    def test_match_while_degraded_flagged_not_failed(self):
        system = DistributedTopKSystem(
            lambda: FXTMMatcher(prorate=True),
            node_count=3,
            faults=FaultPlan(crashed={1}),
        )
        controller = DistributedController(system)
        adds = list(controller.run(STREAM[:3]))
        assert all(r.ok for r in adds)
        response = controller.submit("MATCH 3 age: [20 .. 22], state: Indiana")
        assert response.ok  # a partial answer is still an answer
        assert response.degraded
        assert response.coverage < 1.0
        assert response.outcome is not None
        assert 1 in response.outcome.failed_leaves
        assert controller.matches_degraded == 1

    def test_healthy_match_not_degraded(self, controller):
        list(controller.run(STREAM[:3]))
        response = controller.submit("MATCH 3 age: [20 .. 22], state: Indiana")
        assert response.ok
        assert not response.degraded
        assert response.coverage == 1.0
        assert controller.matches_degraded == 0

    def test_error_responses_carry_default_match_fields(self, controller):
        response = controller.submit("FROBNICATE")
        assert not response.degraded
        assert response.coverage == 1.0
        assert response.outcome is None


class TestBatchRequests:
    def test_batch_results_match_sequential_requests(self, controller):
        list(controller.run(STREAM[:3]))
        response = controller.submit(
            "BATCH 3 age: [20 .. 22], state: Indiana ; age: [35 .. 40]"
        )
        assert response.ok
        assert response.batch_outcome is not None
        assert response.batch_outcome.events == 2
        assert [[r.sid for r in results] for results in response.batch_results] == [
            ["ad-1", "ad-3"],
            ["ad-2"],
        ]
        assert not response.degraded
        assert response.coverage == 1.0

    def test_batch_degraded_under_crash(self):
        system = DistributedTopKSystem(
            lambda: FXTMMatcher(prorate=True),
            node_count=3,
            faults=FaultPlan(crashed=frozenset({0, 1, 2}), seed=3),
        )
        controller = DistributedController(system)
        list(controller.run(STREAM[:3]))
        response = controller.submit("BATCH 2 age: [20 .. 22]")
        assert response.ok
        assert response.degraded
        assert controller.matches_degraded == 1

    def test_batch_parse_error_reported(self, controller):
        response = controller.submit("BATCH nope age: 20")
        assert not response.ok
        assert "BATCH" in response.error


class TestErrorPathLogging:
    def build(self):
        from repro.obs.logging import StructuredLogger

        logger = StructuredLogger(clock=lambda: 1.0)
        system = DistributedTopKSystem(
            lambda: FXTMMatcher(prorate=True), node_count=2, logger=logger
        )
        return DistributedController(system), logger

    def test_parse_error_logs_structured_event(self):
        controller, logger = self.build()
        response = controller.submit("FROBNICATE nonsense")
        assert not response.ok
        (record,) = logger.records_for(event="controller.parse_error")
        assert record["level"] == "warning"
        assert record["component"] == "controller"
        assert "FROBNICATE" in record["error"]

    def test_request_failure_logs_structured_event(self):
        controller, logger = self.build()
        response = controller.submit("CANCEL no-such-sid")
        assert not response.ok
        (record,) = logger.records_for(event="controller.request_failed")
        assert record["level"] == "error"
        assert record["kind"] == "cancel"
        assert "no-such-sid" in record["error"]

    def test_explicit_logger_overrides_system_logger(self):
        from repro.obs.logging import StructuredLogger

        explicit = StructuredLogger(clock=lambda: 1.0)
        system = DistributedTopKSystem(lambda: FXTMMatcher(), node_count=2)
        controller = DistributedController(system, logger=explicit)
        controller.submit("FROBNICATE")
        assert explicit.records_for(event="controller.parse_error")

    def test_no_logger_stays_silent(self):
        system = DistributedTopKSystem(lambda: FXTMMatcher(), node_count=2)
        controller = DistributedController(system)
        assert controller.logger is None
        response = controller.submit("FROBNICATE")
        assert not response.ok
