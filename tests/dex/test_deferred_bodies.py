"""Deferred method bodies: a class builds them on the first read."""

import dataclasses
import gc
import sys
import threading
import time
import weakref

from repro.dex.builder import AppBuilder
from repro.workload.corpus import benchmark_app_spec
from repro.workload.generator import LibrarySpec, generate_app


def _fill(calls=None, pause=0.0):
    def fill(builders):
        if calls is not None:
            calls.append(threading.get_ident())
        time.sleep(pause)
        ctor, run = builders
        ctor.object_init()
        this = run.this()
        arg = run.param(0)
        run.invoke_virtual(this, "com.a.Task", "go", args=[arg], params=["int"])
        run.return_void()

    return fill


def _task_class(fill, name="com.a.Task"):
    app = AppBuilder()
    cls = app.new_class(name)
    cls.constructor()
    cls.method("run", params=["int"])
    cls.defer_bodies(fill)
    return cls.dex_class


def _eager_task_class(name="com.a.Task"):
    app = AppBuilder()
    cls = app.new_class(name)
    cls.default_constructor()
    run = cls.method("run", params=["int"])
    this = run.this()
    arg = run.param(0)
    run.invoke_virtual(this, "com.a.Task", "go", args=[arg], params=["int"])
    run.return_void()
    return cls.dex_class


class TestDeferredBodies:
    def test_first_read_builds_every_body_into_the_declared_methods(self):
        calls = []
        cls = _task_class(_fill(calls))
        ctor, run = cls.methods
        assert calls == []
        assert len(run.body) == 4
        assert len(calls) == 1
        assert cls.methods[0] is ctor and cls.methods[1] is run
        assert len(ctor.body) == 3
        assert len(calls) == 1

    def test_built_bodies_equal_eager_ones(self):
        deferred, eager = _task_class(_fill()), _eager_task_class()
        assert deferred == eager
        assert repr(_task_class(_fill())) == repr(eager)
        assert _task_class(_fill()).methods[1] == eager.methods[1]
        assert eager.methods[1] == _task_class(_fill()).methods[1]

    def test_concurrent_first_reads_run_the_fill_once(self):
        calls = []
        cls = _task_class(_fill(calls, pause=0.01))
        methods = list(cls.methods)
        barrier = threading.Barrier(8)
        seen = [None] * 8
        errors = []

        def reader(slot):
            try:
                barrier.wait(timeout=10)
                method = methods[slot % 2]
                seen[slot] = (slot % 2, method.body)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(i,)) for i in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(calls) == 1
        for index, body in seen:
            assert body is methods[index].body

    def test_an_unread_app_is_freed_without_the_cyclic_collector(self):
        spec = dataclasses.replace(
            benchmark_app_spec(3, scale=0.2),
            libraries=(LibrarySpec("com.lib.free"),),
        )
        gc.collect()
        gc.disable()
        try:
            app = generate_app(spec)
            filler = app.apk.classes.get(f"{spec.package}.gen.Filler0")
            component = app.apk.classes.get("com.lib.free.core.Component0")
            assert filler.methods[-1]._body is None  # never built
            refs = [
                weakref.ref(app.apk),
                weakref.ref(filler),
                weakref.ref(filler.methods[-1]),
                weakref.ref(component.methods[-1]),
            ]
            del app, filler, component
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()
