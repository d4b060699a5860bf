"""TabText: tabular-to-text feature extraction, embedding, and evaluation."""
