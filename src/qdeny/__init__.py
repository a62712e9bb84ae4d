"""Simulation lab for deniability, covertness and distillation in quantum
key exchange.

Modules:
    qcore    exact few-qubit state math (vectors, densities, measurement)
             and BB84 qubit batches as arrays
    gf2      binary codes: syndromes, coset keys, the UE codeword sampler
    channel  qubit / classical / covert time-bin channels and the warden
    bb84     the prepare-and-measure protocol with coset-key extraction
    denial   decoy eavesdropping, the judge, coercer experiments
    ue       uncloneable encryption, fake pads, key exchange over UE
    dcqke    covert QKE, the dual-session deniable construction, reduction
    distill  entanglement filtering, teleportation, decoupling checks
    games    experiment harness and advantage statistics
    rng      seeded streams and the covert-schedule generator
    cli      batch runner (`qdeny <experiment> --seed ... --trials ...`)
"""

from .rng import CounterModePrng, RandomStream

__version__ = "0.1.0"

__all__ = ["RandomStream", "CounterModePrng", "__version__"]
