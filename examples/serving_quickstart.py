"""Serving quickstart: from a fitted profile to a multi-process pool.

Fits Inspector Gadget on a small synthetic KSDD pool, saves the serving
profile, then brings up a 2-worker :class:`repro.serving.ServingPool` and
exercises the product surface: batch and single-image requests (verified
byte-identical to single-process ``predict``), async submits, health and
ping, the HTTP front end driven by a stdlib ``urllib`` client (its JSON
response asserted equal to in-process ``predict``, so this example
doubles as a transport integration check) with gzip response
negotiation, and a graceful drain/shutdown.  Finishes with
a micro throughput probe so the pool's request pipeline is visible end to
end.

The same pool is available from the command line::

    python -m repro.serving --profile ksdd.igz --workers 2 --images a.npy
    python -m repro.serving --profile ksdd.igz --workers 2 \
        --http 127.0.0.1:8765

Run:  python examples/serving_quickstart.py
"""

import gzip
import json
import shutil
import tempfile
import time
import urllib.request
from pathlib import Path

import numpy as np

from repro import InspectorGadget, InspectorGadgetConfig, make_dataset
from repro.augment import AugmentConfig
from repro.crowd import WorkflowConfig
from repro.serving import ServingPool, serve_http
from repro.serving.protocol import encode_image


def fit_profile(workdir: Path):
    """Train once: the pool only ever sees the saved profile."""
    dataset = make_dataset("ksdd", scale=0.1, seed=7, n_images=120)
    config = InspectorGadgetConfig(
        workflow=WorkflowConfig(n_workers=3, target_defective=8),
        augment=AugmentConfig(mode="policy", n_policy=8),
        labeler_max_iter=60,
        seed=0,
    )
    ig = InspectorGadget(config)
    ig.fit(dataset)
    path = ig.save(workdir / "ksdd.igz")
    print(f"profile saved: {path} ({path.stat().st_size / 1024:.0f} KiB, "
          f"fingerprint {ig.serving_fingerprint()[:12]})")
    return path, dataset


def run(workdir: Path) -> None:
    profile_path, dataset = fit_profile(workdir)
    images = [item.image for item in dataset.images]
    reference = InspectorGadget.load(profile_path)

    with ServingPool(profile_path, workers=2, max_batch=8, max_wait_ms=2.0,
                     warmup_shapes=(dataset.image_shape,)) as pool:
        health = pool.health()
        rtts = [f"{rtt * 1000:.1f}ms" for rtt in pool.ping().values()]
        print(f"pool ready: {len(health.workers)} workers "
              f"(pids {[w.pid for w in health.workers]}), ping {rtts}")

        # Batch request — byte-identical to single-process predict.
        weak = pool.predict(images[:32])
        assert (weak.probs.tobytes()
                == reference.predict(images[:32]).probs.tobytes())
        print(f"batch of 32: defect rate {weak.labels.mean():.2f}, "
              "byte-identical to single-process: True")

        # Single-image request — a bare 2-D array works.
        one = pool.predict(images[40])
        print(f"single image: label {one.labels[0]}, "
              f"confidence {one.confidence[0]:.3f}")

        # Async submits from a bursty client; the dispatcher micro-batches
        # them into a handful of IPC round-trips.
        handles = [pool.submit(images[i]) for i in range(48, 60)]
        results = [handle.result(60) for handle in handles]
        print(f"async burst: {len(results)} responses, "
              f"{sum(w.labels[0] for w in results)} flagged defective")

        # HTTP front end: the same pool on a TCP socket (port 0 binds an
        # ephemeral port), driven here by a stdlib urllib client.  JSON
        # floats round-trip exactly, so the parsed probabilities must be
        # byte-identical to in-process predict — asserted, which makes
        # this example an integration check for the transport.  The
        # client also accepts gzip: large responses come back compressed.
        with serve_http(pool, host="127.0.0.1", port=0) as front:
            body = json.dumps({
                "images": [encode_image(img) for img in images[:8]],
            }).encode()
            request = urllib.request.Request(
                front.url + "/v1/label", data=body, method="POST",
                headers={"Content-Type": "application/json",
                         "Accept-Encoding": "gzip"},
            )
            with urllib.request.urlopen(request, timeout=120) as resp:
                encoding = resp.headers.get("Content-Encoding")
                raw = resp.read()
            payload = gzip.decompress(raw) if encoding == "gzip" else raw
            answer = json.loads(payload)
            http_probs = np.array(answer["probs"], dtype=np.float64)
            assert (http_probs.tobytes()
                    == reference.predict(images[:8]).probs.tobytes())
            with urllib.request.urlopen(front.url + "/healthz",
                                        timeout=30) as resp:
                healthz = json.loads(resp.read())
            print(f"HTTP at {front.url}: labeled {answer['n_images']} "
                  "images byte-identical to in-process predict "
                  f"(Content-Encoding={encoding}, {len(raw)} bytes on the "
                  f"wire), healthz ok={healthz['ok']}")

        # Throughput probe: one pass of the whole pool of images.
        t0 = time.time()
        pool.predict(images)
        elapsed = time.time() - t0
        print(f"throughput probe: {len(images) / elapsed:.1f} imgs/sec "
              f"({len(images)} images in {elapsed:.2f}s)")

        drained = pool.drain(timeout=30)
        print(f"drained cleanly: {drained}")
    print("pool shut down")


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="ig-serving-"))
    try:
        run(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
