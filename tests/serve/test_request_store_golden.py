"""Golden pins of small served runs across every engine axis, pairwise.

Each case serves one small scenario (at most 64 offered requests) and
pins SHA-256 digests of ``json.dumps(result.to_dict(), sort_keys=True)``
and of ``compute_metrics(result).to_dict()``; a traced case also pins
its Perfetto export, its Prometheus text and the tracer's ``requests``,
``segments`` and ``batch_rows`` rows.  The digests were recorded from
the per-request engine that preceded the columnar request store (one
``Request`` object per arrival, mutated in place), so they hold the
store to that engine's results bit for bit.  Ten export digests were
re-recorded since, when sampled runs began to read the in-flight rows
after a degraded re-plan, the plan-cache hit rate after every lookup
and the availability after a launch that abandons part of its batch:
the Perfetto digests of cases 5, 11, 19, 48, 51, 53, 56 and 63 and the
Prometheus digests of cases 5 and 63.

The cases are a pairwise covering design: every pair of values of any
two axes (workload, batcher, admission, behaviour, tracing, machine)
occurs in at least one case, which :func:`test_design_covers_every_pair`
checks.  The first 48 rows are the covering design; the last 16 are
seeded extra rows.
"""

import hashlib
import itertools
import json

import pytest
from test_engine import _InjectsAt, _Stamped

from repro.core.machine import TCUMachine
from repro.core.parallel import ParallelTCUMachine
from repro.obs import SloBurnMonitor, Tracer, chrome_trace_json, prometheus_text
from repro.serve import (
    BurstyWorkload,
    ClosedLoopWorkload,
    ContinuousBatcher,
    DeadlineAdmission,
    Degrader,
    DiurnalWorkload,
    FixedRetry,
    MixedWorkload,
    PoissonWorkload,
    QueueCapAdmission,
    ServingEngine,
    SizeBatcher,
    TimeoutBatcher,
    TraceWorkload,
    chaos_injector,
    compute_metrics,
)

AXES = {
    "workload": (
        "poisson", "bursty", "diurnal", "closed", "trace", "mixed", "stamped", "injects",
    ),
    "batcher": ("continuous", "size", "timeout"),
    "admission": ("unbounded", "queue-cap", "deadline"),
    "behaviour": (
        "plain", "preempt", "chaos-checkpoint", "chaos-restart", "degrade", "abandon",
    ),
    "tracing": ("untraced", "samplerless", "level"),
    "machine": ("serial", "parallel3"),
}

# (workload, batcher, admission, behaviour, tracing, machine); the case
# index is also its seed
DESIGN = (
    ("poisson", "continuous", "deadline", "plain", "untraced", "serial"),
    ("bursty", "continuous", "unbounded", "preempt", "level", "parallel3"),
    ("trace", "size", "deadline", "chaos-checkpoint", "samplerless", "parallel3"),
    ("bursty", "timeout", "queue-cap", "chaos-restart", "samplerless", "serial"),
    ("diurnal", "timeout", "unbounded", "abandon", "untraced", "parallel3"),
    ("diurnal", "size", "queue-cap", "degrade", "level", "serial"),
    ("closed", "size", "unbounded", "chaos-restart", "untraced", "parallel3"),
    ("closed", "timeout", "deadline", "preempt", "level", "serial"),
    ("mixed", "continuous", "unbounded", "degrade", "samplerless", "parallel3"),
    ("stamped", "continuous", "queue-cap", "chaos-checkpoint", "untraced", "serial"),
    ("injects", "size", "queue-cap", "plain", "samplerless", "parallel3"),
    ("trace", "continuous", "queue-cap", "abandon", "level", "serial"),
    ("injects", "timeout", "unbounded", "chaos-checkpoint", "level", "serial"),
    ("mixed", "size", "queue-cap", "preempt", "untraced", "serial"),
    ("stamped", "size", "deadline", "abandon", "samplerless", "parallel3"),
    ("stamped", "timeout", "unbounded", "plain", "level", "serial"),
    ("injects", "continuous", "deadline", "degrade", "untraced", "serial"),
    ("diurnal", "continuous", "deadline", "chaos-restart", "samplerless", "serial"),
    ("poisson", "size", "unbounded", "preempt", "samplerless", "parallel3"),
    ("poisson", "timeout", "queue-cap", "degrade", "level", "serial"),
    ("mixed", "timeout", "deadline", "chaos-restart", "level", "serial"),
    ("bursty", "size", "deadline", "plain", "untraced", "serial"),
    ("closed", "continuous", "queue-cap", "chaos-checkpoint", "samplerless", "serial"),
    ("trace", "timeout", "unbounded", "chaos-restart", "untraced", "serial"),
    ("mixed", "continuous", "unbounded", "abandon", "untraced", "serial"),
    ("diurnal", "continuous", "unbounded", "chaos-checkpoint", "untraced", "serial"),
    ("closed", "continuous", "unbounded", "plain", "untraced", "serial"),
    ("closed", "continuous", "unbounded", "abandon", "untraced", "serial"),
    ("diurnal", "continuous", "unbounded", "preempt", "untraced", "serial"),
    ("poisson", "continuous", "unbounded", "chaos-restart", "untraced", "serial"),
    ("closed", "continuous", "unbounded", "degrade", "untraced", "serial"),
    ("stamped", "continuous", "unbounded", "degrade", "untraced", "serial"),
    ("trace", "continuous", "unbounded", "degrade", "untraced", "serial"),
    ("bursty", "continuous", "unbounded", "degrade", "untraced", "serial"),
    ("poisson", "continuous", "unbounded", "chaos-checkpoint", "untraced", "serial"),
    ("poisson", "continuous", "unbounded", "abandon", "untraced", "serial"),
    ("stamped", "continuous", "unbounded", "preempt", "untraced", "serial"),
    ("injects", "continuous", "unbounded", "preempt", "untraced", "serial"),
    ("bursty", "continuous", "unbounded", "chaos-checkpoint", "untraced", "serial"),
    ("mixed", "continuous", "unbounded", "chaos-checkpoint", "untraced", "serial"),
    ("trace", "continuous", "unbounded", "preempt", "untraced", "serial"),
    ("diurnal", "continuous", "unbounded", "plain", "untraced", "serial"),
    ("trace", "continuous", "unbounded", "plain", "untraced", "serial"),
    ("stamped", "continuous", "unbounded", "chaos-restart", "untraced", "serial"),
    ("bursty", "continuous", "unbounded", "abandon", "untraced", "serial"),
    ("injects", "continuous", "unbounded", "chaos-restart", "untraced", "serial"),
    ("injects", "continuous", "unbounded", "abandon", "untraced", "serial"),
    ("mixed", "continuous", "unbounded", "plain", "untraced", "serial"),
    ("poisson", "size", "unbounded", "abandon", "level", "parallel3"),
    ("bursty", "continuous", "deadline", "chaos-restart", "level", "parallel3"),
    ("diurnal", "timeout", "unbounded", "abandon", "level", "parallel3"),
    ("closed", "size", "queue-cap", "degrade", "level", "serial"),
    ("trace", "size", "deadline", "abandon", "samplerless", "serial"),
    ("mixed", "timeout", "unbounded", "abandon", "level", "parallel3"),
    ("stamped", "timeout", "deadline", "preempt", "level", "serial"),
    ("injects", "size", "unbounded", "chaos-checkpoint", "level", "parallel3"),
    ("poisson", "size", "unbounded", "abandon", "level", "serial"),
    ("bursty", "size", "queue-cap", "chaos-checkpoint", "samplerless", "serial"),
    ("diurnal", "size", "queue-cap", "chaos-restart", "samplerless", "serial"),
    ("closed", "size", "unbounded", "preempt", "untraced", "serial"),
    ("trace", "continuous", "queue-cap", "degrade", "samplerless", "parallel3"),
    ("mixed", "continuous", "unbounded", "preempt", "level", "serial"),
    ("stamped", "continuous", "queue-cap", "chaos-checkpoint", "untraced", "serial"),
    ("injects", "size", "queue-cap", "degrade", "level", "serial"),
)

# equal stamps in runs, some of them straddling a size-4 batch boundary
_TRACE_TIMES = [
    0.0, 0.0, 0.0, 400.0, 400.0, 1.5e3, 1.5e3, 1.5e3, 1.5e3, 4e3,
    4e3, 6.5e3, 9e3, 9e3, 9e3, 1.2e4, 1.5e4, 1.5e4, 2e4, 2e4,
    2e4, 2e4, 2e4, 2.6e4, 3e4, 3.1e4, 3.1e4, 4e4, 4.5e4, 4.5e4,
    5e4, 6e4, 6e4, 6e4, 7e4, 7.2e4, 8e4, 8e4, 8e4, 9e4,
]


def _workload(name: str, seed: int):
    if name == "poisson":
        return PoissonWorkload(
            rate=1 / 2.5e3, total=48, kind="matmul", rows=(4, 8), slo=3e4,
            deadline=2.5e4, seed=seed,
        )
    if name == "bursty":
        return BurstyWorkload(
            1 / 8e2, 1 / 1e4, 48, dwell=1.5e4, kind="mlp", rows=(2, 4), slo=4e4,
            deadline=3e4, seed=seed,
        )
    if name == "diurnal":
        return DiurnalWorkload(
            rate=1 / 3e3, total=48, period=4e4, amplitude=0.9, kind="dft", rows=(1, 2),
            slo=3e4, deadline=2.5e4, seed=seed,
        )
    if name == "closed":
        return ClosedLoopWorkload(
            clients=4, total=40, think=1.5e3, kind="matmul", rows=(4, 8), slo=3e4,
            deadline=2e4, seed=seed,
        )
    if name == "trace":
        return TraceWorkload(
            _TRACE_TIMES, kind="matmul", rows=(2, 4, 8), slo=2e4, deadline=1.5e4,
            seed=seed,
        )
    if name == "mixed":
        return MixedWorkload(
            PoissonWorkload(
                rate=1 / 3e3, total=36, kind="matmul", rows=4, priority=2, slo=1.5e4,
                deadline=1.2e4, seed=seed,
            ),
            PoissonWorkload(
                rate=1 / 1e4, total=8, kind="mlp", rows=256, deadline=2e5, seed=seed + 1
            ),
            TraceWorkload(
                _TRACE_TIMES[::5], kind="dft", rows=2, priority=1, slo=2e4, seed=seed + 2
            ),
        )
    if name == "stamped":
        return _Stamped(_TRACE_TIMES)
    if name == "injects":
        return _InjectsAt([0.0, 0.0, 100.0, 250.0], think=800.0, total=36)
    raise ValueError(name)


_BATCHERS = {
    "continuous": lambda: ContinuousBatcher(max_size=8),
    "size": lambda: SizeBatcher(size=4),
    "timeout": lambda: TimeoutBatcher(timeout=3e3, max_size=6),
}

_ADMISSIONS = {
    "unbounded": lambda: "unbounded",
    "queue-cap": lambda: QueueCapAdmission(cap=5),
    "deadline": lambda: DeadlineAdmission(est_service=2e3),
}


def _chaos(seed: int):
    return chaos_injector(
        fail_rate=0.05, crash_every=0.3, repair_for=0.004, straggle_rate=0.1,
        straggle_factor=2.0, seed=seed,
    )


def _behaviour(name: str, seed: int) -> dict:
    if name == "plain":
        return {}
    if name == "preempt":
        return {"preempt": True}
    if name in ("chaos-checkpoint", "chaos-restart"):
        return {
            "faults": _chaos(seed),
            "retry": FixedRetry(delay=2e3, max_attempts=3),
            "recovery": name.split("-")[1],
            "preempt": True,
        }
    if name == "degrade":
        return {
            "faults": _chaos(seed),
            "retry": FixedRetry(delay=2e3, max_attempts=4),
            "degrade": Degrader(after_attempts=1, mode="rows"),
            "preempt": True,
        }
    if name == "abandon":
        return {"abandon": True}
    raise ValueError(name)


def _tracer(name: str):
    if name == "untraced":
        return None
    if name == "samplerless":
        return Tracer()
    return Tracer(
        detail="level",
        sample_every=1e4,
        monitors=[SloBurnMonitor("burn", target=0.9, window=5e4, min_count=2)],
    )


def _machine(name: str):
    if name == "serial":
        return TCUMachine(m=16, ell=64.0, execute="cost-only")
    return ParallelTCUMachine(m=16, ell=64.0, units=3, execute="cost-only")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_case(index: int) -> tuple[str, ...]:
    """Serve case ``index`` of :data:`DESIGN`; return its digests."""
    workload, batcher, admission, behaviour, tracing, machine = DESIGN[index]
    tracer = _tracer(tracing)
    engine = ServingEngine(
        _machine(machine),
        _BATCHERS[batcher](),
        admission=_ADMISSIONS[admission](),
        tracer=tracer,
        **_behaviour(behaviour, index),
    )
    result = engine.serve(_workload(workload, index))
    digests = (
        _sha(json.dumps(result.to_dict(), sort_keys=True)),
        _sha(json.dumps(compute_metrics(result).to_dict(), sort_keys=True)),
    )
    if tracer is None:
        return digests
    rows = (tracer.requests, tracer.segments, tracer.batch_rows)
    return (
        *digests,
        _sha(chrome_trace_json(tracer, label=f"case{index}")),
        _sha(prometheus_text(tracer.registry)),
        _sha(repr(rows)),
    )


GOLDEN: dict[int, tuple[str, ...]] = {
    0: (
        "08a6e651a05bc64f70ce0fbc3f820dde904708225b71db0d613fc5f3ae7d6a0f",
        "4c88ba28b9e5c5707b3599decb0a166794ca711c7da1cfbac50eebab661322cb",
    ),
    1: (
        "b57ced57c2fcaf5160811812d4f657d8e62ce3cc8941105694db915269649fbf",
        "53be9bb161730a8d5e94a30835421790c1901995b74dd747495edd5cf6c7d136",
        "cc41c8d87fd73a74b0d142c1bb8d7b7c194afaca5d7907c715f9bb2d8ef247a6",
        "9306d126d5f6b547a04345c3e3ed092bee4d9aae7b2de46ba8d1e6dd151281a3",
        "9ba21dc450c871477c3b9d74945e103d14268848660b0929876f18be2cfa475b",
    ),
    2: (
        "7f8a2eae06c0970704682017e3d356cc4b69231491f4326cb46634b9df77d729",
        "11808e421668bfb2ec5915b6ada77c8ac2215e82401929c353745df7730ef84e",
        "6b9bb06c053064360923b28f0cd4ed4cc9a743928c50923d39172207657e3434",
        "af53b3b9cb0427ce87c98bcc3034cf917d7c09519e76d4c17a8505b1f2c63db7",
        "b54454343657df2aeee321eeb3c5ccc1ccd8969bfe240d5b8540b1b3762f6555",
    ),
    3: (
        "83fdfcbef0867103781d64ddae08523f87fd7cfc52fd0df2fd8e34ae26b15144",
        "712085577d54b7a586120229a1ddd9eeaa389614daefe5c3df090f3e978d14aa",
        "3a4362d59878b20aaa11c9785e048922c47a174779b8b210ef43805160f8c7d8",
        "f07950229630cc5419af61fa47f5721b81358f63c069cbb58314d4b559d4dfed",
        "41702713f3de0b70ef4c9530cda11936cd0f906c1422c86ae867361cad99e072",
    ),
    4: (
        "ea11b4cba096b2b1a39233efd3dfa93674ccea60b5d713b1357852f6d416c31e",
        "063aaba07c7369af7602c1973a3f306a610e71d7e91cb1f060db532dd20050f7",
    ),
    5: (
        "6ac17e5b0b53d3ba165c57479cf34f713d34f63d740f7534cd19e0f37d60a2e6",
        "99d465d02eaad0de18afcfa44aee002239b0223b8f1685e967739ea0b7b46609",
        "2825fee4bb8b48c4c7341eb607ba7e650b69eeb1bc80e872de547272dab9d0a5",
        "ecbfb1e8645ee49a26fffd752401982958f5ddccbba4a6aebb671e893998f230",
        "5c542ffc18cd298c5fead60a9f419c2675a5119314143680bf2f73f6ebdf914f",
    ),
    6: (
        "c4c8bc96d2b282dcc987ed8e8eec671cb02959e8815ac22798aba4e61470a681",
        "b38a4e43db0aceaba594b68cea06564f909807f56e550118d4cd14b26704e07d",
    ),
    7: (
        "d72182a52f187aafdc59f7ede5797b96f8ec738743c0f123fd8580b9e6576fa1",
        "01d78ed9316b7040f02bc8adde2e753f59cfe41936f535270ee5417c0bf428b5",
        "73f02c990d9db78f81106f339bb859c56067484de7efdcd48032400d028c9ae6",
        "09ef8f61bf028eee2967c07724c4517156bcc5edc2db167821f3e4b44b288adc",
        "36add408351b8ea91428a3ffbb6ca563815b1a3c78f41c48d104825376a1c4ec",
    ),
    8: (
        "90b3fdda5619a838c91337e28790e6ae2c1461fb4a8a94f3b293e6d788e2da51",
        "6d7625455654da4a09faadee698ebcef523a26f86192886e2c8652b766dbfd92",
        "f2ff0600bf36397e9700d65655da8167a6cfb0128e46e0003e5f0ff3265e5381",
        "d118e9ba1863dc5db6be51843e13475eed62acaaa5740d7c1caa15cfb82cb171",
        "e70074253c370046ccc6dcd37a2fd9294bf4137ea9d327b82fc85007c19a7692",
    ),
    9: (
        "0e29974f54292320476ab08f49728a176de29332cb5a110c2f3b83f8b24499f8",
        "3ed96e2e263835750605ae4feeae0aeb55093b1e193eabc8046fc441e92aeaa6",
    ),
    10: (
        "3dfd5b6de6bdc6d383cb087edfc04734cd98e36edc45bc0386ed6b52652e953a",
        "ae90478900f602deadb616d0d18956366ea0593bc581d198f6dbeacccb43e230",
        "adeca72231ad5c78876a42109ccb05917f8e7a0693ac8e95829dc519d9634307",
        "fbb01d867a087a8f3f9001d0c66bf4c1bb0e7d435c68f7962f3970b9db289c55",
        "f10daf393c12dfd4686b397dc2df5ab30d4b80e1cf5d6d9fd8091304c02e6c21",
    ),
    11: (
        "9dc8d4a100520d2ae203ca13b3aec40f42f80ecd9ac8232129396c508ea26891",
        "ddffe7e94342bca4b4c1ad7593f0847f04805df66580871e8b329534d8a13de7",
        "3df7e8cdeca28d005aa31fb8398d0cbfc42bdd72b6ebf5bff27f8e6cbbf2f7aa",
        "cf92e9337d2a8c1a7aad7cf960aa2f4de41bd0d8d4a1538c38409652e345ac65",
        "259c8bcc05f2003f7ae448d62ae9388de33ef6b2fb633b631852518d173b80cc",
    ),
    12: (
        "3442bd3bbb34a581757e22d60f0dcb90b8989f5ad7daaa88c3644c6c01753a4b",
        "8b1321c6853da2d06a1f2f8893f4d80d7992123a52f9f8b74a2ee5d0d7a20cee",
        "eaf1cb4a465bf9451d19966bd8daadbcd48eb7eeddc257e1ec6c690db695a0cb",
        "d44e0f4fff9661e5d95def2eda915119af65a06e370ca2a2ecc24ec37c31214e",
        "da2850d3af8fa4ccb8dc5d8c325f09150042f658e6adcb32e0294ae03d57ec66",
    ),
    13: (
        "e21d84c779636b077064ccc3de3cf352256dea25fc2809337765da9655899ae8",
        "30e84a183a6f7551fb1defd6f2fe65839558ea3aa1b10e878257acb73e300204",
    ),
    14: (
        "b17dd3d9ac1706de344c6b302f5bd26de2d62b45c3b1a22bfebd4ddcfcd989bf",
        "a1b14cfe2098e4d8f56865cb8aca0381d3b7ef72dd4ceaab334ae5e155f3763a",
        "088085804f50c4bbdc44a33e57b0cf4a7e4f2511f48ed7d3fec9d336d3e9a680",
        "e178c484990db4e81c9074d2819b376d7a74f283eb7184b967a47a44320bcd91",
        "a8b093f63c6250ddf615a90993e8ecd20203f1c7af4fa11b579c7e8256af8384",
    ),
    15: (
        "cb28e1231b9a29805c808b2b475a9cd56d7346c5992f6d4ce150ebb2892de6a1",
        "2476fed5ac85882eef87572f38a6d9c1803bd076db214d05b5b438faedc53949",
        "2bede0a6cdbc4ca24a02b5790abc17505ff9c65909b18a7eea911f0358187301",
        "a192293f1cf8c43139b10470aa5736d70e6b77b273d376e38490ed9af86cdac9",
        "cbfc2055154df189f3121f0a54b6040e30339fbbd893adf79b699e6d006942c1",
    ),
    16: (
        "0ddcb814766916eeefa76f2acee1168e0fc0ab8e0020c4702c02f746b8578f94",
        "f912c57328395bde4b880d50f9eaa712a32165584a853aef440258480d5c5795",
    ),
    17: (
        "5b53b66feb8275f24d2c7c8612a8de113d3adf5265a1d333290ca9f72f68e1cc",
        "fc2b0304557dc539b46587c04c7f179cd165301f7c46b1b2a9d2b6b4d5ddc8b0",
        "bf764148c9c5fc536ac6103f9ecf1b0b41603eb05468f1433e56e0f78eeb24e0",
        "c8fa17a5d7479790772193542d9634827ef967cdbec633f58c6074b824829c04",
        "b9a54a8efff95a3654c7ab9b3007ff4e0d479bfbd688f255f43c0665cf5bfd22",
    ),
    18: (
        "b61cdb643ce78e48065afee9daf4dd26bddf4f42de34222120c5f0ec713e54b8",
        "6e673932d911aa4e60b851b5b815b65c3171b807b42688f8b3b3f7543a166d0d",
        "a512d56ed78612e597085568c547dcc058e19e8a6e9246188f5ff51062e0522f",
        "b5d1392a07cec850f791badf8d001f50c86752e96d4cb4d3eb982eb37664a52d",
        "04051be6fbbe4bde44517a10d96b6fbda82534868127da9e52ef2c8f5bf4eec1",
    ),
    19: (
        "7fe42262297d1a036aa9a6a1e6afa3b61e36c07f6ec458e76c50af32954ba8b0",
        "2436f261a6f9b5d01c0134d28dcf8f137384d7d61382a3203c0fd7c81b2b6789",
        "9b488c02077cae58c4681cbbf913c3002da0ddb188cae7481244b855319dc735",
        "1ce431e349d1265aad32dd54a63bcf86ed0672e25831cc4a2b92aaf18e5aae96",
        "0b2074ec4621a0eff6163cddcd586cf9c78da9f53921266116a72e71bfa52c6b",
    ),
    20: (
        "fa39d55aa68b7c2b958e328dbf4858d2d4aabf84ad57fa048b5325723154489a",
        "aeb2cbf93ba258b4db7aa2aaab31aee79e06cf5732a55633ef6e11cc169cbca9",
        "7d96146e3c3ad959cbed08dac6642da0cdb5cec4ef78488895f1eb90f69fe69b",
        "a1191662fd80879c41c9ac328ddfeedce341aeaccd7b0ef73cf880529c9b2517",
        "d3de5c16b2a1a510d84fae27386fcc2c02f09e77aba7f3736c06958acdd1283c",
    ),
    21: (
        "479aeac7e0ad82d99095e3ff5552f690ff28f513614c75e716355dc733726660",
        "eaac720324f1a1e9c1fccd638e171eb0b901d126780d4b108b37821231073304",
    ),
    22: (
        "2210251d4f24caadcda1d31c3af22a561bd15e4a70cd62e6d58267d163980c6b",
        "978b3ac0089c2d3d48e2332a78dc0754a992da0a6317160d670dd5c0bd7b951e",
        "b2299f283ed052256d9b02e2cc18ed40595bb5e647f38e028b0ab5cf2d65ca5f",
        "b3e14d2ed7ec3a7b38664b811fa85cf5af94ad7b71a80f30450628afc217c841",
        "fe3069aa6796b0c7ce42bb4716d19a7a81314538c48434745d4d5b6232543667",
    ),
    23: (
        "9bd878c7b89131461b48b7c78e1228894efd0d3fa2ea7ca44b5df8dc58f2137f",
        "35077ac8feaf758186bc3ed46c454e6d1af5061c5ad7e25982027f3de9a81a9f",
    ),
    24: (
        "566057e898491e3e81fc8bf63a6e495680ab7a4c7182f52a59e89b79b093d14b",
        "32fb6920b33e9aa196ec822995d8549c2462db2c11d55466cbdee93fb53d6e86",
    ),
    25: (
        "b8967dcb7724e6c27f09ac12bbc00b34eeaad661adf6cf6808b897641151e25f",
        "5b04a4f1fae4b48e62d8e0f5589097db45c99cdc743772d12850604684954d13",
    ),
    26: (
        "a5e794ddcc12bb8306dcb1cad4b9f6b11527f7a2eb3977b6fd6c19d472a7d745",
        "444797b115e314edf120d2a9fb4ca59fc1eec7414b8d1eb42db8a99f194dc696",
    ),
    27: (
        "1cec77f239917230c34f92321831eb608e39f8d08edc2ec24753ccc0a40e268a",
        "1c372072c68c1aedd9d7c3ea90cd5cb0f3ae73980898fef20967b206e2765d3e",
    ),
    28: (
        "6081c43b894dc99dca68d99e4aeaaac8c6013540a9dfcdb5b94745fe3c1e9847",
        "8e1cfd1685e1865ad3922081b41dfa3d92ff7868e17ba84c5595d34c0f7c5ca4",
    ),
    29: (
        "53275fb7588b2910bbfd783a1b29628beea0767219199ad804311f8371d110fd",
        "2ce1c80ebf50293e7eb3b0887ef909c9f8a1ccf40a57b993350baabd9c4172b1",
    ),
    30: (
        "0ee1e19cd64676b62d2c4906be5998d4a91be9a78ab0228e31aba6aedbcd0c4e",
        "d027c1e86c0cb4648e2b9e11b92a6b42729e7ef12ae0a1ccc57a48bbab77ddb3",
    ),
    31: (
        "c396cdc856e357bb5f7da475bb6c7e30b4a92fb090875147c5561eb332387fc8",
        "2840bbb8057545a73ace190e6c8be7d149559717c0f9d2d5d017778482227a19",
    ),
    32: (
        "fab13f784b3a56391f1d08abaca3af637a3f89e411927503047b215d786cda7e",
        "a6515f233a90048fe69be6d49b30a0c1d31beb2fa88bf9e9cadab8a7f51810ea",
    ),
    33: (
        "2821bece3de147f5e3b56ac7d70df6189aac5ed08275c455778b6ca08a101c8b",
        "9ad012873eb5bd7c6a29e20d3d03a21cb11b6f7ba216347344856159b50a7425",
    ),
    34: (
        "47b01c9117827a32d2956d9deb3d2b38e1354e386b9a13852a8a7cda101266cd",
        "48a1cbb79785b0a999d6ae2005611e30ce1d0ceb7edd9408f7e8ffb8cc877eef",
    ),
    35: (
        "1a24bfc93add6ce57ba12192ac6b5473db3af0a4fde1ad4e7f762208a5ce9313",
        "b8a8a213e48d747a49d3858da0dffb8fc53a4b97374a0985fb9d6aa1eaed6503",
    ),
    36: (
        "1ca8417d0317d67f5453834aff22bf4c6f0644c38e51d7ec1f99d3ea648a2719",
        "20e968ae1f4d266fbd3541d860991f972d5a1264986d1c5d04bdbf47f9449150",
    ),
    37: (
        "fac256017281b4abf7dcccb171b89331d0f3ae16def53782a22d3386cee12aed",
        "9ec10e1b3a2d8b7a971118995c4c9e491b9ee5a9aebc3a776ef498b025a07079",
    ),
    38: (
        "4b88e5cbf8ca671f678472645476127d763bcbfb49e36069a60db60993c17506",
        "bf07180d58cedef1405e0687807eecb0ab2eb99f4daf26d7549a1464209d3467",
    ),
    39: (
        "28e1d3d926ef1137901735e10da06489c78d352a7dfb020f1e72781af3fc631f",
        "c7dc90951a0f401cd8a1fd50dedef93f29081502e8ed0afa34c49be7c265fb12",
    ),
    40: (
        "caa0b88bcb699470a6524dceaa86a13b1e465cdd192fbe305683c20329193a8a",
        "c5ae1f9ff95cc5f1d500fd7c4d1d277e8fbd1014a8078640cda6eb173eb4c3b2",
    ),
    41: (
        "39d96d72ade1cb61858685cd8961a39d2bb42314f96427978c8c3dbd7bce45da",
        "5a7ddf1edf6e581af2945a4b41ee380cbe248c4e1b7dcfae5e391debafd1ade3",
    ),
    42: (
        "68bb8a397e7dcbc4478a8fd7a3298003f0e60ef186e8f05fc2a41c8e78a556e6",
        "8d988524ca010b6a3695252a065fe01c61c06a914b96a8635f200e144842723a",
    ),
    43: (
        "8bfde1d0927b045bb77179f6fcf2567393803555a2bba52364ecc5bce7754b9a",
        "f0218445787c3b52bb877f38c0110e8a87bd5fc21f46dce9de5afe408436c9c8",
    ),
    44: (
        "af43fae0001c8f1331180a34ca7c3e9b39624a85be1d9eedbd230463eb6bbe9b",
        "bc1a3707cadac95d71a51c8db88e169ed1ce7c1cdb5e84b9d8c79bfd56fad6ef",
    ),
    45: (
        "2d069910f3b16d7a5988dd54ea2314441fce2f8fe5cff5029d5423da33989c17",
        "697e81439864f453c2d9e6521efbba50c68fdbb56375bee174036daf9e07ce38",
    ),
    46: (
        "2cdf101509e5d440ac04dbc4867ed8631743d070bf86287b57321b1f2c769f39",
        "9ec10e1b3a2d8b7a971118995c4c9e491b9ee5a9aebc3a776ef498b025a07079",
    ),
    47: (
        "bc9b5b01d452d40ac2ec4afcf6b9f48868bb590d8420d268d6006496c2fb757d",
        "1e2cec6ca8ab4d1d0a55db4f4be3316e13eacd9eb896db5f811a42d701835068",
    ),
    48: (
        "fe2b20016c69942f68803e77b12dde73c5efff7b11eaaee7e6be668fd58d4cb5",
        "a30a7e6232d61ee15c7398450c8cfe0e42e24c7668cd2ce6673d59306f111ced",
        "6017026f6bfc9ab674f67cb04de7db616e892a26871eefd8e14a68381af04253",
        "84246fa63b951aec22c41d81fd8988ffbb1b2494e3268eda21d5bae78c1fa1c4",
        "f49d345debb0653bdeecf7b37345834b25ae3bfe5befefc5b676aad35096d4b0",
    ),
    49: (
        "96ec1177737150a2323124c55b2073cb2ebad9058af8196b730469d13286de34",
        "9bc890ae03a5b62a7b0401a9091480beab420d26108aed06ba377c804c264be0",
        "794f280a5aac6a5f6cb089d7cbd2b88e77cd647c91ef58938f4d5fc03c049d93",
        "8526d386dd4b8c291a3ca286ca0566c3a3d87fa2202f26f26bea7ee87cda3933",
        "d322781aeca3bb004b321622728e083eeffce889de3313352614c1ac710943e7",
    ),
    50: (
        "30f5d449e625f860ed4a104f92a5e4a4c99d5256222bcd2fac81ac74fadba4ef",
        "237984c4af27b4cdb9c081887c260135eee2928b87d84f16763682a5326b6e39",
        "9784c1012e573072563602045c410f6fbb5322544ae67950bf896c16d033a4f1",
        "d6e26db571a3cd072f18d40b98cbd565be015c5cb7c34d74e066760fdc7e2b80",
        "74823f440a06dee21c4c35ecad108eac30e7e2293c687ec58fb462c699f49c4c",
    ),
    51: (
        "8f542ba24b6c72a05f8c6d7cc6acf9e47ed4aabae6a71baebb33c55809cb0049",
        "74cf9b76208bd2f8b79f936d4dc0eca6de57821c082e8f0694788d27503bbf2f",
        "4ed3a69cafe6f8a080f481d0c4963085844355105fa3135a87a756abeb6b3ec4",
        "6f41e7a421c83972acc26369c19c1109bca2bcf0447f55d81ce85eb64c54a2e4",
        "f530f8cfa88ea8245f92a978023dfa4ef673518d53ea4443e2a3fded3b1b0a9d",
    ),
    52: (
        "d0850e28ea5f2c0fc5311f0a169d7bad2e6da53238759b4c6291c64647c9abca",
        "496bc8efee853faa8fad5ee4cd2467ab75987ff0109e605779059879db7657fd",
        "9d4bc9e88e20837bc51d8e10119c2b5932883e1814de1ac682ed5fab67cff4ad",
        "4bdfbdbaedbf301b775dc6c7dc40f100a4e35340e1edac72c5041be53882cf60",
        "0956b1b848be74b7e9f44dd08b79c4bb5f0798457dd1208b5523e52eb2067ac5",
    ),
    53: (
        "5e6871c09006a71d0f32bf4a8515c117f36c612ba0264b9354fbe37c70346da5",
        "564fe6f7d3bf067764a5978538002dfd19563c82634bc7ed3e85f337fb8286e8",
        "7212ccf1c637bc514cccc50043a7fa00efb0903f169e860f1a4c43a0ba18c9b2",
        "1c781d4143b2c2010dbcadcf1048c6335da2e3c9b9f704f21fb72a790de8183e",
        "a36d25b55c3851aac738f47c5a3676b2656bdc705c3477665d841295838bc0b7",
    ),
    54: (
        "07eab5356d89042bbd415c1ad2c2cb634a2d81c5c77926e904b6b02096410d75",
        "2476fed5ac85882eef87572f38a6d9c1803bd076db214d05b5b438faedc53949",
        "ce52b540db9baa629bce5c502965f5054f0f5d23218262f9c09d22d880c0f77e",
        "a192293f1cf8c43139b10470aa5736d70e6b77b273d376e38490ed9af86cdac9",
        "cbfc2055154df189f3121f0a54b6040e30339fbbd893adf79b699e6d006942c1",
    ),
    55: (
        "f25fad9694b524d91bbbe9b60f06436d386126e7f883e71c5a10878adcf96478",
        "7ad4a5898715079b49ac37dd5ee0a244aeae3b4c3eb76f2336f2bf2ed6c8a2ab",
        "3fbd8c8696c73312afd54342091ed8d36b1f8122fc319af7b42e501f02bdebd6",
        "a77d39a805bf7facff3e47d72bdc0314604e899d5615702c2e9e9874a7b70765",
        "bc982b43fe8d12d27aa2f10c2555937bb423bf12844b9153bd041bb2df056a7d",
    ),
    56: (
        "094edafb15aca1703b29ed155ea2b58d6d496124de3752111ef57ee74d2241fc",
        "e4b98290ea677a24b371c6871a9be8bf1b61b35989c70a105ae0e80aa8d18856",
        "d00f546c2c07505a6894bfa571fc438f2ae3efb1d7dfec8bad07193b8e9187fb",
        "8496c7ef58908c0e41296e7f66ed5b29af5a4c189d26f47b07854c90ac18f6c7",
        "59391cb0da027b485b25b9b82e93eded374ef583e117f05d6b95684ed2443cb1",
    ),
    57: (
        "10722f74661a7c7cf87c8b18350355eac50faffaa1ec9058ac931bc739621613",
        "27dec618b979fb6324516d5b4a0c7f6286e4d657309c3b7fdea530cfa1f28873",
        "f407d59cebf27450305bb8c202abb8c19c9c6e257acb97e67d9d0d890f5691e2",
        "538dc45ee12d5bbae42d740a696635d2f03afbd7a9eca2e0c842813195fdb4f4",
        "27e0a404fba1c080b1035e495958f97aa9e8525b336a36cbfa33d41e6d347fad",
    ),
    58: (
        "b0aaa2eda3d088a5232be685804b6c03038f7e83537c6e716f07b94d90233511",
        "e91ffe4ebbd5a367f1c114fc977fe4e3b3e67ba5171602b62f042c8382893008",
        "ef7409a43bdeb07ca6e7d4388ccbba7d7f83ee5dd3902b606ab5cc615a7e7c7f",
        "d2cf14f37b90b16b0408bd8e083d23367242145e3ebbd755f557d483729b4385",
        "95852b93e2a464b7f13a5ee71ebbaab65f4159626196569bd68067abd33d84bc",
    ),
    59: (
        "86f91275fe587d0a974a4a99e593ae07518cae926bab20c7a4dd60708c8f4c29",
        "5085c781f39723893024bdb06ce11b7a80f6b0150a81799f9237485ae33cb9eb",
    ),
    60: (
        "736735900b72a8cb3899c86061e590aa2944861464fd615d14fd868e5d8ddf15",
        "bbadd369bf2a12515eea50199b8cac0df08cf0875e0fa57664f73dbf16c21b05",
        "954a7fed0d7fab12ec27779cdf65cbc360a99bfeb1f178f74016d06eafb14388",
        "af28ac8aaec90e526ee5f4438a4c5e8a563293ce9285fc1ba1cd1f4c8e750a01",
        "dfda8c108789072260ee57b69cbcc8251dd3124e204ac3d7fd38ea9f2f141f22",
    ),
    61: (
        "d9f2d6add9e03cd72417d0618d7b6df58dc69ce5312d34153c07c259e0daaf5b",
        "9f1f283fb5401c8ebdd133098b2ee20ed1c77c70228432ae4d9a8f9c9c588e2a",
        "51f783eeaa6bef414aa96cd1fd19d430e43fb6f183501863b9ee6b22c4ecaa26",
        "27ae8280b9488dbb2f4706f76897f75512985950b48f0b9e61696a2082720eb1",
        "49b859b81ddff20f3093545b75ae28256377ade14b830eb5c6f621527bf537ae",
    ),
    62: (
        "a4b5d617d43aebe684333ea3888a864e904e9b2edea45d84f53c57c758dc11c3",
        "96fce818df4cbe5f55d5e32a6998643f5c121f50c733ccd3bb919c887fee02e8",
    ),
    63: (
        "3999e9b98cb482817ddcd0bf04e3a7d826c297312b13b393a710c167bd5104d2",
        "6ee05259aeb6f68ba4ba8867445c631861c5a7a1b2b1d85029c082586f62e1ef",
        "45e0658dd04292812e054bad35b4802ec1f10ef065bdfe03e176684c99993f06",
        "185491dae2ba9463b50aac5f3cdda99081e217e0e6e1e0aaa9435d93fc1b554f",
        "12ece885710835d5fd3bc6d75a550d004887442fcc61cf00d89d5a01320f2220",
    ),
}


def test_design_covers_every_pair():
    names = list(AXES)
    for (i, a), (j, b) in itertools.combinations(enumerate(names), 2):
        seen = {(row[i], row[j]) for row in DESIGN}
        missing = set(itertools.product(AXES[a], AXES[b])) - seen
        assert not missing, (a, b, sorted(missing))
    assert len(DESIGN) >= 60


@pytest.mark.parametrize("index", range(len(DESIGN)), ids=lambda i: "-".join(DESIGN[i]))
def test_served_case_matches_golden(index):
    assert run_case(index) == GOLDEN[index]
