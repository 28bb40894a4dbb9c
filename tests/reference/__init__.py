"""Per-agent reference code that tests hold the library to: literal protocol
steps (compared with the batched ones), the count-state map (compared
with the count kernels), and a pooled χ² goodness-of-fit test that holds
observed counts to an exact law."""
