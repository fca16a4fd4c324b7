"""Deterministic generator of ledger-shaped datasets with configurable skew.

Stands in for bulk exports of real chain data at desk scale: one seeded PRNG
drives every choice, so equal configs produce byte-identical datasets. Hot
senders, receivers, and tokens follow Zipf-ranked popularity; per-sender
nonces are consecutive; transfer values are capped by the sender's running
balance so no balance ever goes negative.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .chain_model import (
    AddressRow,
    Block,
    ChainDataset,
    Contract,
    Token,
    TokenTransaction,
    Transaction,
    Withdrawal,
)
from .gcpause import collector_paused

_TWOPI = 2.0 * math.pi  # as random.gauss has it

_SYLLABLES = (
    "vel", "mor", "tan", "qui", "zor", "lim", "pax", "dru",
    "fen", "gal", "hex", "ilo", "jun", "kra", "nym", "oss",
)


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 0
    n_blocks: int = 100
    start_number: int = 0
    start_timestamp: int = 1_700_000_000
    block_interval: int = 12
    mean_tx_per_block: int = 100
    address_pool: int = 500
    address_zipf_s: float = 1.1
    n_tokens: int = 40
    token_zipf_s: float = 1.0
    token_tx_prob: float = 0.6
    contract_fraction: float = 0.2
    withdrawal_rate: float = 2.0
    initial_balance: int = 10**21
    # Fraction of token names carrying the "US" substring, and of tokens with
    # zero total supply (keeps substring and division predicates non-degenerate).
    us_name_fraction: float = 0.10
    zero_supply_fraction: float = 0.01
    # Senders start from a prior-history nonce offset (log-uniform up to this
    # bound, 30% start at zero), as they would in a mid-chain extraction.
    nonce_offset_max: int = 10_000_000
    # Optional distribution shift: when drift is nonzero, per-transfer token
    # value magnitudes (log10) are drawn from N(mu0 + drift * block_offset, 1)
    # instead of the stationary log-uniform default.
    token_value_drift: float = 0.0
    token_value_mu0: float = 9.5

    def __post_init__(self) -> None:
        if self.n_blocks < 1:
            raise ValueError("n_blocks must be >= 1")
        for name in ("mean_tx_per_block", "n_tokens", "initial_balance"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if self.address_pool < 1:
            raise ValueError("address_pool must be >= 1: every block draws its miner from it")
        for name in ("token_tx_prob", "contract_fraction", "us_name_fraction", "zero_supply_fraction"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.address_zipf_s < 0 or self.token_zipf_s < 0:
            raise ValueError("zipf exponents must be >= 0")
        if self.withdrawal_rate < 0:
            raise ValueError("withdrawal_rate must be >= 0")


class ZipfSampler:
    """Rank-weighted sampler: P(rank k) proportional to 1 / (k+1)**s."""

    def __init__(self, n: int, s: float):
        self.cum: list[float] = []
        total = 0.0
        for k in range(n):
            total += 1.0 / (k + 1) ** s
            self.cum.append(total)

    def sample(self, rng: random.Random, prefix: int | None = None) -> int:
        hi = len(self.cum) if prefix is None else prefix
        r = rng.random() * self.cum[hi - 1]
        return bisect_left(self.cum, r, 0, hi)


def _poisson(draw, lam: float) -> int:
    if lam <= 0:
        return 0
    threshold = math.exp(-lam)
    k, p = 0, 1.0
    while True:
        p *= draw()
        if p <= threshold:
            return k
        k += 1


@collector_paused
def generate(cfg: SynthConfig) -> ChainDataset:
    """Produce a dataset for ``cfg``; equal configs yield identical datasets.

    Every draw comes from one ``random.Random``, in a fixed order. The hot
    draws are written out inline, exactly as the ``Random`` methods make
    them (their source is the same in CPython 3.10 to 3.13), to save a
    Python-level call each:

    - ``uniform``: a log-uniform value is ``int(10 ** (lo + (hi - lo) * random()))``;
    - ``randrange(lo, hi)``: ``lo + r``, where ``r = getrandbits(k)`` with
      ``k = (hi - lo).bit_length()`` is drawn again until ``r < hi - lo``;
    - ``randbytes(n)``: ``getrandbits(8 * n).to_bytes(n, "little")``;
    - ``gauss``: each pair of ``random()`` draws gives two values, and the
      second is kept for the next call;
    - Zipf ranks, as :meth:`ZipfSampler.sample` draws them.

    Rows are built by ``tuple.__new__``, without their Python-level constructor.
    """
    rng = random.Random(cfg.seed)
    random_ = rng.random
    randrange = rng.randrange
    randbytes = rng.randbytes
    bits = rng.getrandbits
    new = tuple.__new__

    addr_seen: set[bytes] = set()
    pool: list[bytes] = []
    for _ in range(cfg.address_pool):
        addr = bits(160).to_bytes(20, "little")
        while addr in addr_seen:
            addr = bits(160).to_bytes(20, "little")
        addr_seen.add(addr)
        pool.append(addr)
    n_pool = len(pool)
    k_pool = n_pool.bit_length()
    pool_index = {addr: i for i, addr in enumerate(pool)}
    addr_cum = ZipfSampler(n_pool, cfg.address_zipf_s).cum
    addr_total = addr_cum[-1] if addr_cum else 0.0

    start_number = cfg.start_number
    n_blocks = cfg.n_blocks
    last_number = start_number + n_blocks - 1
    hash_seen: set[bytes] = set()
    blocks: list[Block] = []
    for i in range(n_blocks):
        block_hash = bits(256).to_bytes(32, "little")
        while block_hash in hash_seen:
            block_hash = bits(256).to_bytes(32, "little")
        hash_seen.add(block_hash)
        n = bits(4)  # randrange(0, 9)
        while n >= 9:
            n = bits(4)
        extra_data = bits(8 * n).to_bytes(n, "little")
        base_fee = int(10 ** (9 + 2 * random_()))
        size = bits(18)  # randrange(20_000, 200_000)
        while size >= 180_000:
            size = bits(18)
        miner = bits(k_pool)  # randrange(n_pool)
        while miner >= n_pool:
            miner = bits(k_pool)
        blocks.append(
            new(
                Block,
                (
                    block_hash,
                    start_number + i,
                    cfg.start_timestamp + i * cfg.block_interval,
                    extra_data,
                    base_fee,
                    20_000 + size,
                    pool[miner],
                ),
            )
        )

    n_contracts = round(cfg.contract_fraction * n_pool)
    contract_addrs = sorted(rng.sample(range(n_pool), n_contracts)) if n_contracts else []
    contracts: list[Contract] = []
    erc20_addrs: list[bytes] = []
    for idx in contract_addrs:
        addr = pool[idx]
        creation = None
        if random_() < 0.8:  # 20% predate the dataset entirely
            creation = blocks[randrange(n_blocks)].hash
        is_erc20 = random_() < 0.5
        is_erc721 = (not is_erc20) and random_() < 0.3
        n_versions = 2 if random_() < 0.02 else 1
        for version in range(1, n_versions + 1):
            contracts.append(
                Contract(
                    addr,
                    version,
                    tuple(randbytes(4) for _ in range(randrange(1, 6))),
                    randbytes(randrange(32, 128)),
                    is_erc20,
                    is_erc721,
                    creation,
                )
            )
        if is_erc20:
            erc20_addrs.append(addr)

    n_tokens = min(cfg.n_tokens, n_pool)
    token_addr_choices = list(erc20_addrs)
    erc20_set = set(erc20_addrs)
    spare = [a for a in pool if a not in erc20_set]
    while len(token_addr_choices) < n_tokens and spare:
        token_addr_choices.append(spare.pop(randrange(len(spare))))
    token_addrs = token_addr_choices[:n_tokens]

    # Tokens activate in index order: a None creation block means the token
    # predates the dataset, otherwise it is usable from its creation block on.
    creations: list[int | None] = []
    for _ in token_addrs:
        if random_() < 0.25:
            creations.append(None)
        else:
            creations.append(start_number + randrange(n_blocks))
    creations.sort(key=lambda c: -1 if c is None else c)
    tokens: list[Token] = []
    for i, addr in enumerate(token_addrs):
        if random_() < 0.80:
            decimals: int | None = 18
        elif random_() < 0.75:
            decimals = rng.choice((6, 8, 9))
        else:
            decimals = None
        d = 18 if decimals is None else decimals
        if random_() < cfg.zero_supply_fraction:
            supply = 0
        else:
            supply = int(10 ** (6 + d + 6 * random_()))
        name = rng.choice(_SYLLABLES) + rng.choice(_SYLLABLES) + f"-{i:03d}"
        if random_() < cfg.us_name_fraction:
            name = name[:3] + "US" + name[3:]
        symbol = "".join(rng.choice("ABCDEFGHIJKLMNOPQRSTVWXYZ") for _ in range(randrange(3, 6)))
        creation = creations[i]
        tokens.append(
            Token(
                addr,
                symbol,
                name,
                decimals,
                supply,
                None if creation is None else blocks[creation - start_number].hash,
            )
        )
    token_cum = ZipfSampler(len(tokens), cfg.token_zipf_s).cum
    activation_numbers = [(-1 if c is None else c) for c in creations]

    initial_balance = cfg.initial_balance
    balances = {addr: initial_balance for addr in pool}
    nonces: dict[bytes, int] = {}
    nonce_max = cfg.nonce_offset_max
    nonce_exp = math.log10(nonce_max) if nonce_max > 0 else 0.0
    for addr in pool:
        if nonce_max <= 0 or random_() < 0.3:
            nonces[addr] = 0
        else:
            nonces[addr] = int(10 ** (nonce_exp * random_()))

    transactions: list[Transaction] = []
    token_txs: list[TokenTransaction] = []
    withdrawals: list[Withdrawal] = []
    add_tx = transactions.append
    add_token_tx = token_txs.append
    mean_tx = cfg.mean_tx_per_block
    withdrawal_rate = cfg.withdrawal_rate
    token_tx_prob = cfg.token_tx_prob
    drift = cfg.token_value_drift
    mu0 = cfg.token_value_mu0
    contract_pool = [pool[i] for i in contract_addrs]
    n_contract_pool = len(contract_pool)

    k_contracts = n_contract_pool.bit_length()
    gauss_next = None

    for offset, block in enumerate(blocks):
        block_hash = block.hash
        active = bisect_right(activation_numbers, block.number)
        token_total = token_cum[active - 1] if active else 0.0
        mu = mu0 + drift * offset
        log_index = 0
        for tx_index in range(_poisson(random_, mean_tx)):
            sender = pool[bisect_left(addr_cum, random_() * addr_total, 0, n_pool)]
            transfers: list[int] = []
            if active and random_() < token_tx_prob:
                transfers.append(bisect_left(token_cum, random_() * token_total, 0, active))
                while random_() < 1 / 3:  # geometric tail, mean 1.5 transfers
                    transfers.append(bisect_left(token_cum, random_() * token_total, 0, active))
            if transfers:
                to: bytes | None = token_addrs[transfers[0]]
            elif random_() < 0.01:
                to = None  # contract creation: no receiver, no value moved
            elif n_contract_pool and random_() < 0.3:
                r = bits(k_contracts)  # randrange(n_contract_pool)
                while r >= n_contract_pool:
                    r = bits(k_contracts)
                to = contract_pool[r]
            else:
                to = pool[bisect_left(addr_cum, random_() * addr_total, 0, n_pool)]
            if to is None:
                value = 0
            else:
                value = int(10 ** (12 + 7 * random_()))
                balance = balances[sender]
                if value > balance:
                    value = balance
                balances[sender] = balance - value
                balances[to] += value

            roll = random_()
            tx_type = 2 if roll < 0.85 else (0 if roll < 0.95 else 1)
            prio = int(10 ** (8 + 2 * random_())) if tx_type == 2 else None
            if to is None:
                n = bits(8)  # randrange(100, 300)
                while n >= 200:
                    n = bits(8)
                payload = bits(8 * (100 + n)).to_bytes(100 + n, "little")
            elif transfers or random_() < 0.2:
                n = bits(2)  # randrange(0, 3)
                while n >= 3:
                    n = bits(2)
                payload = bits(8 * (4 + 32 * n)).to_bytes(4 + 32 * n, "little")
            else:
                payload = b""

            tx_hash = bits(256).to_bytes(32, "little")
            while tx_hash in hash_seen:
                tx_hash = bits(256).to_bytes(32, "little")
            hash_seen.add(tx_hash)
            nonce = nonces[sender]
            nonces[sender] = nonce + 1
            gas = bits(20)  # randrange(21_000, 1_000_000)
            while gas >= 979_000:
                gas = bits(20)
            add_tx(
                new(
                    Transaction,
                    (tx_hash, tx_index, value, sender, to, 21_000 + gas, prio, payload, block_hash, tx_type, nonce),
                )
            )
            for tok_idx in transfers:
                if drift:
                    # gauss(mu, 1.0)
                    if gauss_next is None:
                        x2pi = random_() * _TWOPI
                        g2rad = math.sqrt(-2.0 * math.log(1.0 - random_()))
                        z, gauss_next = math.cos(x2pi) * g2rad, math.sin(x2pi) * g2rad
                    else:
                        z, gauss_next = gauss_next, None
                    token_value = max(0, int(10 ** (mu + z)))
                else:
                    token_value = int(10 ** (6 + 8 * random_()))
                add_token_tx(new(TokenTransaction, (tx_hash, log_index, token_addrs[tok_idx], token_value)))
                log_index += 1

        for w_index in range(_poisson(random_, withdrawal_rate)):
            addr = pool[bisect_left(addr_cum, random_() * addr_total, 0, n_pool)]
            amount = int(10 ** (15 + 3 * random_()))
            balances[addr] += amount
            withdrawals.append(new(Withdrawal, (block_hash, w_index, pool_index[addr], addr, amount)))

    return ChainDataset(
        blocks=tuple(blocks),
        addresses=tuple(AddressRow(addr, balances[addr]) for addr in pool),
        transactions=tuple(transactions),
        contracts=tuple(contracts),
        tokens=tuple(tokens),
        token_transactions=tuple(token_txs),
        withdrawals=tuple(withdrawals),
        final_block=last_number,
    )
