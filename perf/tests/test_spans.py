"""Span nesting, self-time arithmetic, wrappers, Chrome-trace export."""

import types

from perfkit.spans import Tracer, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_direct_children():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("campaign", trace_id="c1"):
        clock.now = 1.0
        with tracer.span("host.replay"):
            clock.now = 4.0
            with tracer.span("cache.put"):
                clock.now = 5.0
            clock.now = 6.0
        with tracer.span("host.replay"):
            clock.now = 8.0
        clock.now = 10.0
    durations = [span.duration for span in tracer.spans]
    assert durations == [10.0, 5.0, 1.0, 2.0]
    # campaign: 10 - (5 + 2); first replay: 5 - 1 (grandchild not twice).
    assert self_times(tracer.spans) == [3.0, 4.0, 1.0, 2.0]
    assert tracer.layer_self_times() == {"campaign": 3.0, "host": 6.0,
                                         "cache": 1.0}
    assert sum(tracer.layer_self_times().values()) == 10.0
    assert tracer.total("host.replay") == 7.0
    assert tracer.self_total("host.replay") == 6.0
    assert tracer.count("host.replay") == 2


def test_children_inherit_the_trace_id_and_record_their_parent():
    tracer = Tracer(FakeClock())
    with tracer.span("client.request", trace_id="r7"):
        with tracer.span("serve.submit"):
            pass
    root, child = tracer.spans
    assert root.parent is None and child.parent == 0
    assert child.trace_id == "r7"
    assert [s.name for s in tracer.children_of("client.request",
                                               "serve.submit")] \
        == ["serve.submit"]


def test_wrap_times_methods_and_module_aliases_and_unwraps():
    module = types.ModuleType("repro_fake_origin")
    user = types.ModuleType("repro_fake_user")

    def work(x):
        return x + 1

    module.work = work
    user.work = work            # `from origin import work`
    import sys
    sys.modules["repro_fake_origin"] = module
    sys.modules["repro_fake_user"] = user

    class Box:
        def get(self, key):
            return None if key == "miss" else key

        @staticmethod
        def decode(raw):
            return raw.upper()

    tracer = Tracer()
    try:
        assert tracer.wrap(module, "work", "layer.work")
        assert tracer.wrap(Box, "get", "cache.get",
                           note=lambda args, kwargs, found:
                           {"hit": found is not None})
        assert tracer.wrap(Box, "decode", "serve.decode")
        assert not tracer.wrap(Box, "renamed_away", "cache.gone")
        assert user.work(1) == 2 and module.work(2) == 3
        box = Box()
        assert box.get("k") == "k" and box.get("miss") is None
        assert box.decode("ok") == "OK"
    finally:
        tracer.unwrap_all()
        del sys.modules["repro_fake_origin"], sys.modules["repro_fake_user"]
    assert module.work is work and user.work is work
    assert tracer.count("layer.work") == 2
    assert [s.attrs["hit"] for s in tracer.named("cache.get")] \
        == [True, False]
    assert tracer.count("serve.decode") == 1
    user.work(5)
    assert tracer.count("layer.work") == 2      # unwrapped: not recorded


def test_chrome_trace_has_what_a_viewer_and_a_reader_need():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.span("g5.job", trace_id="sieve/atomic"):
        clock.now = 0.5
        with tracer.span("g5.simulate"):
            clock.now = 2.0
    events = tracer.chrome_trace()["traceEvents"]
    assert [event["name"] for event in events] == ["g5.job", "g5.simulate"]
    child = events[1]
    assert child["ph"] == "X" and child["cat"] == "g5"
    assert child["ts"] == 500000.0 and child["dur"] == 1500000.0
    assert child["args"]["parent"] == 0
    assert child["args"]["id"] == "sieve/atomic"
    assert events[0]["args"]["self_us"] == 500000.0
