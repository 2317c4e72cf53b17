"""Modeled Java/Android API semantics (Sec. V-B).

"We mimic arithmetic operations and model Android/Java APIs to handle two
complicated expressions, BinopExpr and InvokeExpr."  The forward analysis
consults this registry whenever an SSG node invokes a framework API: the
model computes the call's result fact (and, for mutating APIs such as
``StringBuilder.append``, the updated receiver fact).

A companion table resolves well-known framework *constants* — most
importantly ``SSLSocketFactory.ALLOW_ALL_HOSTNAME_VERIFIER``, whose
presence at a ``setHostnameVerifier`` sink is the SSL misconfiguration
the evaluation hunts for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.values import (
    ArrayObjFact,
    ConstFact,
    Fact,
    NewObjFact,
    UnknownFact,
    merge_facts,
)
from repro.dex.types import FieldSignature, MethodSignature

#: Sentinel strings for the SSL verifier constants.
ALLOW_ALL_VERIFIER = "ALLOW_ALL_HOSTNAME_VERIFIER"
BROWSER_COMPATIBLE_VERIFIER = "BROWSER_COMPATIBLE_HOSTNAME_VERIFIER"
STRICT_VERIFIER = "STRICT_HOSTNAME_VERIFIER"

_SSL_FACTORY = "org.apache.http.conn.ssl.SSLSocketFactory"
_X509 = "org.apache.http.conn.ssl.X509HostnameVerifier"

#: Framework static fields with well-known values.
FRAMEWORK_CONSTANT_FACTS: dict[FieldSignature, Fact] = {
    FieldSignature(_SSL_FACTORY, ALLOW_ALL_VERIFIER, _X509): ConstFact(ALLOW_ALL_VERIFIER),
    FieldSignature(_SSL_FACTORY, BROWSER_COMPATIBLE_VERIFIER, _X509): ConstFact(
        BROWSER_COMPATIBLE_VERIFIER
    ),
    FieldSignature(_SSL_FACTORY, STRICT_VERIFIER, _X509): ConstFact(STRICT_VERIFIER),
}


@dataclass
class ApiCall:
    """The evaluated operands of one framework API invocation."""

    method: MethodSignature
    base_fact: Optional[Fact] = None
    arg_facts: list[Fact] = field(default_factory=list)

    def arg(self, index: int) -> Fact:
        if index < len(self.arg_facts):
            return self.arg_facts[index]
        return UnknownFact(f"missing arg {index}")


@dataclass
class ApiResult:
    """A model's outcome: the call result and/or a receiver update."""

    result: Optional[Fact] = None
    base_update: Optional[Fact] = None


ApiModel = Callable[[ApiCall], ApiResult]

_BUILDER_MEMBER = "__string__"


def _single_const(fact: Fact):
    values = list(fact.possible_consts())
    return values[0] if len(values) == 1 else None


def _as_text(fact: Fact) -> Optional[str]:
    value = _single_const(fact)
    if value is None and not isinstance(value, str):
        # null renders as "null" in Java string contexts.
        if isinstance(fact, ConstFact) and fact.value is None:
            return "null"
        return None
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


# ----------------------------------------------------------------------
# StringBuilder
# ----------------------------------------------------------------------


def _sb_init(call: ApiCall) -> ApiResult:
    seed = ""
    if call.arg_facts:
        text = _as_text(call.arg(0))
        if text is None:
            return ApiResult(
                base_update=NewObjFact.make(
                    "java.lang.StringBuilder", {_BUILDER_MEMBER: UnknownFact("seed")}
                )
            )
        seed = text
    return ApiResult(
        base_update=NewObjFact.make(
            "java.lang.StringBuilder", {_BUILDER_MEMBER: ConstFact(seed)}
        )
    )


def _sb_append(call: ApiCall) -> ApiResult:
    base = call.base_fact
    if not isinstance(base, NewObjFact):
        return ApiResult(result=UnknownFact("append on unknown builder"))
    current = base.member(_BUILDER_MEMBER)
    left = _as_text(current) if current is not None else None
    right = _as_text(call.arg(0))
    if left is None or right is None:
        updated = base.with_member(_BUILDER_MEMBER, UnknownFact("unresolved append"))
    else:
        updated = base.with_member(_BUILDER_MEMBER, ConstFact(left + right))
    return ApiResult(result=updated, base_update=updated)


def _sb_to_string(call: ApiCall) -> ApiResult:
    base = call.base_fact
    if isinstance(base, NewObjFact):
        member = base.member(_BUILDER_MEMBER)
        if member is not None:
            return ApiResult(result=member)
    return ApiResult(result=UnknownFact("toString on unknown builder"))


# ----------------------------------------------------------------------
# String / Integer / TextUtils
# ----------------------------------------------------------------------


def _string_value_of(call: ApiCall) -> ApiResult:
    text = _as_text(call.arg(0))
    return ApiResult(result=ConstFact(text) if text is not None else UnknownFact("valueOf"))


def _string_concat(call: ApiCall) -> ApiResult:
    left = _as_text(call.base_fact) if call.base_fact is not None else None
    right = _as_text(call.arg(0))
    if left is None or right is None:
        return ApiResult(result=UnknownFact("concat"))
    return ApiResult(result=ConstFact(left + right))


def _string_transform(transform: Callable[[str], str]) -> ApiModel:
    def model(call: ApiCall) -> ApiResult:
        text = _as_text(call.base_fact) if call.base_fact is not None else None
        if text is None:
            return ApiResult(result=UnknownFact("string transform"))
        return ApiResult(result=ConstFact(transform(text)))

    return model


def _string_format(call: ApiCall) -> ApiResult:
    fmt = _as_text(call.arg(0))
    if fmt is not None and "%" not in fmt:
        return ApiResult(result=ConstFact(fmt))
    return ApiResult(result=UnknownFact("String.format"))


def _integer_parse(call: ApiCall) -> ApiResult:
    text = _as_text(call.arg(0))
    if text is None:
        return ApiResult(result=UnknownFact("parseInt"))
    try:
        return ApiResult(result=ConstFact(int(text)))
    except ValueError:
        return ApiResult(result=UnknownFact("parseInt of non-number"))


def _integer_to_string(call: ApiCall) -> ApiResult:
    value = _single_const(call.arg(0))
    if isinstance(value, int):
        return ApiResult(result=ConstFact(str(value)))
    return ApiResult(result=UnknownFact("Integer.toString"))


def _string_substring(call: ApiCall) -> ApiResult:
    text = _as_text(call.base_fact) if call.base_fact is not None else None
    start = _single_const(call.arg(0))
    if text is None or not isinstance(start, int) or not 0 <= start <= len(text):
        return ApiResult(result=UnknownFact("substring"))
    if len(call.arg_facts) >= 2:
        end = _single_const(call.arg(1))
        if not isinstance(end, int) or not start <= end <= len(text):
            return ApiResult(result=UnknownFact("substring"))
        return ApiResult(result=ConstFact(text[start:end]))
    return ApiResult(result=ConstFact(text[start:]))


def _string_replace(call: ApiCall) -> ApiResult:
    text = _as_text(call.base_fact) if call.base_fact is not None else None
    old = _as_text(call.arg(0))
    new = _as_text(call.arg(1))
    if text is None or old is None or new is None:
        return ApiResult(result=UnknownFact("replace"))
    return ApiResult(result=ConstFact(text.replace(old, new)))


def _text_utils_is_empty(call: ApiCall) -> ApiResult:
    value = _single_const(call.arg(0))
    if isinstance(value, str):
        return ApiResult(result=ConstFact(len(value) == 0))
    if isinstance(call.arg(0), ConstFact) and call.arg(0).value is None:
        return ApiResult(result=ConstFact(True))
    return ApiResult(result=UnknownFact("TextUtils.isEmpty"))


# ----------------------------------------------------------------------
# Factories and misc
# ----------------------------------------------------------------------


def _new_obj(class_name: str) -> ApiModel:
    def model(call: ApiCall) -> ApiResult:
        return ApiResult(result=NewObjFact.make(class_name))

    return model


def _identity_arg0(call: ApiCall) -> ApiResult:
    return ApiResult(result=call.arg(0))


# ----------------------------------------------------------------------
# Intent extras (ICC dataflow)
# ----------------------------------------------------------------------


def _intent_put_extra(call: ApiCall) -> ApiResult:
    """``intent.putExtra(key, value)`` — capture the extra as a member."""
    base = call.base_fact
    if not isinstance(base, NewObjFact):
        base = NewObjFact.make("android.content.Intent")
    key = _as_text(call.arg(0))
    if key is None:
        return ApiResult(result=base, base_update=base)
    updated = base.with_member(f"extra:{key}", call.arg(1))
    return ApiResult(result=updated, base_update=updated)


def _intent_get_string_extra(call: ApiCall) -> ApiResult:
    """``intent.getStringExtra(key)`` — look the extra back up."""
    base = call.base_fact
    key = _as_text(call.arg(0))
    if isinstance(base, NewObjFact) and key is not None:
        member = base.member(f"extra:{key}")
        if member is not None:
            return ApiResult(result=member)
    return ApiResult(result=UnknownFact("getStringExtra"))


def _intent_set_action(call: ApiCall) -> ApiResult:
    base = call.base_fact
    if not isinstance(base, NewObjFact):
        base = NewObjFact.make("android.content.Intent")
    updated = base.with_member("action", call.arg(0))
    return ApiResult(result=updated, base_update=updated)


def _intent_get_action(call: ApiCall) -> ApiResult:
    base = call.base_fact
    if isinstance(base, NewObjFact):
        action = base.member("action") or base.member("arg0")
        if action is not None:
            return ApiResult(result=action)
    return ApiResult(result=UnknownFact("getAction"))


#: (class name, method name) -> model.
API_MODELS: dict[tuple[str, str], ApiModel] = {
    ("java.lang.StringBuilder", "<init>"): _sb_init,
    ("java.lang.StringBuilder", "append"): _sb_append,
    ("java.lang.StringBuilder", "toString"): _sb_to_string,
    ("java.lang.String", "valueOf"): _string_value_of,
    ("java.lang.String", "concat"): _string_concat,
    ("java.lang.String", "toLowerCase"): _string_transform(str.lower),
    ("java.lang.String", "toUpperCase"): _string_transform(str.upper),
    ("java.lang.String", "trim"): _string_transform(str.strip),
    ("java.lang.String", "format"): _string_format,
    ("java.lang.String", "substring"): _string_substring,
    ("java.lang.String", "replace"): _string_replace,
    ("android.text.TextUtils", "isEmpty"): _text_utils_is_empty,
    ("java.lang.Integer", "parseInt"): _integer_parse,
    ("java.lang.Integer", "toString"): _integer_to_string,
    ("java.lang.Integer", "valueOf"): _identity_arg0,
    ("android.content.Intent", "putExtra"): _intent_put_extra,
    ("android.content.Intent", "getStringExtra"): _intent_get_string_extra,
    ("android.content.Intent", "setAction"): _intent_set_action,
    ("android.content.Intent", "getAction"): _intent_get_action,
    ("android.telephony.SmsManager", "getDefault"): _new_obj(
        "android.telephony.SmsManager"
    ),
    ("java.util.concurrent.Executors", "newFixedThreadPool"): _new_obj(
        "java.util.concurrent.ExecutorService"
    ),
    ("java.util.concurrent.Executors", "newSingleThreadExecutor"): _new_obj(
        "java.util.concurrent.ExecutorService"
    ),
    ("java.util.concurrent.Executors", "newCachedThreadPool"): _new_obj(
        "java.util.concurrent.ExecutorService"
    ),
}


def lookup_model(method: MethodSignature) -> Optional[ApiModel]:
    """The registered model for a framework method, if any."""
    return API_MODELS.get((method.class_name, method.name))


def framework_constant(fieldsig: FieldSignature) -> Optional[Fact]:
    """The well-known value of a framework static field, if modelled."""
    return FRAMEWORK_CONSTANT_FACTS.get(fieldsig)
