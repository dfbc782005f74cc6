//! # verme-dht — DHash and the three VerDi variants
//!
//! The DHT layer of the reproduction (paper §5): the DHash baseline on
//! Chord, and the three VerDi designs on the Verme overlay, spanning the
//! performance/security trade-off of §5.3.
//!
//! All four are one engine, [`DhtEngine`], which implements the shared
//! get/put layer once (operation lifecycle, serving, replication, repair),
//! specialised by a statically dispatched [`Policy`] per system:
//!
//! | Node type | Policy | Lookup | Data path / fetch target | Impersonation exposure |
//! |---|---|---|---|---|
//! | [`DhashNode`] | [`Dhash`] | Chord | direct; the lookup's first successor | n/a (no defenses) |
//! | [`FastVerDiNode`] | [`Fast`] | Verme, type-adjusted | direct, `replicas[attempt % n]`, + cross-section copy | active harvesting via lookups |
//! | [`SecureVerDiNode`] | [`Secure`] | Verme, piggybacked, fan-out | data rides the certified lookup | O(log n) neighbor sections only |
//! | [`CompromiseVerDiNode`] | [`Compromise`] | via an opposite-type relay | relay runs the Fast flow | passive observation at relays |
//!
//! Each node type is an alias of `DhtEngine<Policy>` and implements
//! [`DhtNode`], so experiment harnesses drive them generically.

pub mod api;
pub mod block;
pub mod engine;
pub mod fragments;
pub mod policy;
pub mod repair;
pub mod serving;

pub use api::{keys, DhtConfig, DhtNode, OpKind, OpOutcome};
pub use block::{block_key, verify_block, BlockStore};
pub use engine::{DhtEngine, DhtMsg, DhtTimer, NoExt, Overlay, Policy};
pub use fragments::{
    decode as decode_fragments, encode as encode_fragments, prepare_fragmented, reassemble,
    Fragment, Manifest,
};
pub use policy::compromise::{Compromise, CompromiseVerDiNode, ObservedClient, RelayMsg};
pub use policy::dhash::{Dhash, DhashNode};
pub use policy::fast::{CrossMsg, Fast, FastVerDiNode};
pub use policy::secure::{Secure, SecurePayload, SecureVerDiNode};
pub use repair::DurabilityCensus;
pub use serving::ServingPlane;
