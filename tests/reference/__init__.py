"""Per-agent reference code that tests hold the library to: literal protocol
steps (compared with the batched ones) and the count-state map (compared
with the count kernels)."""
