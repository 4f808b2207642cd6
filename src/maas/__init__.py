"""maas: query-conditioned sampling and training of multi-agent architectures."""
