"""Build a sparse count tensor from a toy dyadic event log.

Walks the ingestion path end to end: encode records into a columnar event
table, aggregate it into a sender x receiver x action x time tensor with
monthly bins, inspect its sparsity statistics, sort actors by activity, and
round-trip the tensor through its text format.
"""

import datetime as dt
import math
import tempfile
from pathlib import Path

from countcp import (
    EventTable,
    density,
    ingest_events,
    load_tensor,
    save_labels,
    save_tensor,
    sort_by_activity,
    vmr_nonzero,
)

raw_events = [
    ("Abaria", "Bedoria", "Consult", "2001-01-10"),
    ("Abaria", "Bedoria", "Consult", "2001-01-22"),
    ("Abaria", "Bedoria", "Consult", "2001-02-02"),
    ("Bedoria", "Abaria", "Threaten", "2001-02-14"),
    ("Cedonia", "Abaria", "Consult", "2001-03-01"),
    ("Cedonia", "Bedoria", "Fight", "2001-03-05"),
    ("Cedonia", "Cedonia", "Consult", "2001-03-07"),  # self-action, dropped
    ("Abaria", "Cedonia", "Consult", "2001-03-30"),
]
events = EventTable.from_records(
    (s, r, a, dt.datetime.fromisoformat(ts)) for s, r, a, ts in raw_events
)
print(f"event table: {len(events)} events, {len(events.actors)} actors, "
      f"{len(events.actions)} action types")

tensor = ingest_events(
    events,
    bin_width="month",
    date_range=(dt.date(2001, 1, 1), dt.date(2001, 3, 31)),
    drop_self_actions=True,
)
print("shape:", tensor.shape)
print("actors:", tensor.mode_labels[0])
print("actions:", tensor.mode_labels[2])
print("time steps:", tensor.mode_labels[3])
print(f"stored entries: {tensor.nnz} of {math.prod(tensor.shape)} cells")
print(f"density: {density(tensor):.4f}")
print(f"variance-to-mean ratio of the counts: {vmr_nonzero(tensor):.3f}")

# repeated (sender, receiver, action, month) events collapse to one count
triple = [
    (tuple(int(c) for c in coord), int(v))
    for coord, v in zip(tensor.coords, tensor.values)
    if v > 1
]
print("aggregated entries with count > 1:", triple)

sorted_tensor, order = sort_by_activity(tensor)
print("actors by overall activity:", sorted_tensor.mode_labels[0])

with tempfile.TemporaryDirectory() as tmp:
    save_tensor(sorted_tensor, Path(tmp) / "tensor.txt")
    save_labels(sorted_tensor.mode_labels, Path(tmp) / "labels.txt")
    back = load_tensor(Path(tmp) / "tensor.txt", Path(tmp) / "labels.txt")
    print("file round-trip exact:", back == sorted_tensor)
