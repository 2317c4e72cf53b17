"""Deferred classes: a class declares its methods on the first read."""

import dataclasses
import gc
import sys
import threading
import time
import weakref

import pytest

from repro.android.apk import Apk
from repro.dex.builder import AppBuilder
from repro.workload.corpus import benchmark_app_spec
from repro.workload.generator import LibrarySpec, generate_app


def _declared(cls):
    """Whether ``cls`` holds its method list (reading it would not
    declare anything)."""
    return cls._pending is None


def _build_task(calls=None, pause=0.0):
    def build(task):
        if calls is not None:
            calls.append(threading.get_ident())
        time.sleep(pause)
        task.default_constructor()
        run = task.method("run", params=["int"])
        this = run.this()
        arg = run.param(0)
        run.invoke_virtual(this, "com.a.Task", "go", args=[arg], params=["int"])
        run.return_void()

    return build


def _pool(build, method_count=2):
    """A pool of a deferred ``com.a.Task`` and an eager subclass."""
    app = AppBuilder()
    app.new_class("com.a.Task", interfaces=["java.lang.Runnable"]).defer(
        build, method_count
    )
    sub = app.new_class("com.a.SubTask", superclass="com.a.Task")
    sub.default_constructor()
    return app.build()


def _eager_task_class():
    app = AppBuilder()
    cls = app.new_class("com.a.Task", interfaces=["java.lang.Runnable"])
    _build_task()(cls)
    return cls.dex_class


class TestDeferredClasses:
    def test_first_read_declares_once_and_equals_an_eager_class(self):
        calls = []
        cls = _pool(_build_task(calls)).get("com.a.Task")
        assert calls == [] and not _declared(cls)
        ctor, run = cls.methods
        assert len(calls) == 1 and _declared(cls)
        assert cls.methods[0] is ctor and cls.methods[1] is run
        assert (len(ctor.body), len(run.body)) == (3, 4)
        assert run.declaring_class == "com.a.Task"
        assert len(calls) == 1
        eager = _eager_task_class()
        assert cls == eager and eager == cls
        assert repr(_pool(_build_task()).get("com.a.Task")) == repr(eager)

    def test_concurrent_first_reads_declare_once(self):
        calls = []
        cls = _pool(_build_task(calls, pause=0.01)).get("com.a.Task")
        barrier = threading.Barrier(8)
        seen = [None] * 8
        errors = []

        def reader(slot):
            try:
                barrier.wait(timeout=10)
                seen[slot] = cls.methods
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
        assert all(methods is cls.methods for methods in seen)
        assert len(cls.methods) == 2

    def test_hierarchy_reads_leave_the_class_undeclared(self):
        pool = _pool(_build_task())
        cls = pool.get("com.a.Task")
        apk = Apk(package="com.a", classes=pool)
        assert pool.method_count() == apk.method_count() == 3
        assert "com.a.Task" in apk.full_pool
        assert [c.name for c in pool.all_subclasses("com.a.Task")] == ["com.a.SubTask"]
        assert pool.superclass_chain("com.a.SubTask") == ["com.a.Task", "java.lang.Object"]
        assert pool.is_subtype_of("com.a.SubTask", "java.lang.Runnable")
        assert sorted(pool.class_names()) == ["com.a.SubTask", "com.a.Task"]
        assert sorted(c.name for c in pool.application_classes()) == [
            "com.a.SubTask", "com.a.Task",
        ]
        assert not _declared(cls)
        assert cls.method_count() == 2
        assert not _declared(cls)

    def test_a_wrong_method_count_raises(self):
        cls = _pool(_build_task(), method_count=3).get("com.a.Task")
        with pytest.raises(ValueError, match="declared 2 methods, not 3"):
            cls.methods
        assert not _declared(cls)

    def test_a_declared_field_raises(self):
        def build(task):
            _build_task()(task)
            task.field("secret", "java.lang.String")

        cls = _pool(build).get("com.a.Task")
        with pytest.raises(ValueError, match="declared a field"):
            cls.methods
        assert not _declared(cls) and cls.fields == []

    def test_generated_bulk_is_deferred_until_read(self):
        spec = dataclasses.replace(
            benchmark_app_spec(3, scale=0.2),
            libraries=(LibrarySpec("com.lib.defer"),),
        )
        apk = generate_app(spec).apk
        deferred = [
            cls for cls in apk.classes
            if ".gen.Filler" in cls.name or ".core.Component" in cls.name
            or cls.name.endswith(".gen.LauncherActivity")
        ]
        assert len(deferred) > spec.filler_classes
        assert not any(_declared(cls) for cls in deferred)
        assert apk.method_count() == sum(
            len(cls.methods) for cls in apk.classes.application_classes()
        )
        assert all(_declared(cls) for cls in deferred)

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
            assert not _declared(filler) and not _declared(component)
            refs = [
                weakref.ref(app.apk),
                weakref.ref(app.apk.classes),
                weakref.ref(filler),
                weakref.ref(component),
            ]
            del app, filler, component
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()
