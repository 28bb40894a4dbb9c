"""Per-agent reference implementations that tests compare the batched
protocol steps against."""
