//! # pte-wireless
//!
//! Wireless communication substrate implementing the paper's fault model
//! (Section II-B): a sink-based star topology in which every packet sent
//! over a wireless up/downlink "can be arbitrarily lost — not received at
//! all, or discarded at the receiver due to checksum errors".
//!
//! The paper's emulation used ZigBee TMote-Sky motes under constant
//! IEEE 802.11g interference; we substitute seedable channel models that
//! exercise the same code path (event loss on `??` links):
//!
//! * [`packet`] — wire encoding with a CRC32 checksum; the
//!   receiver-discard path of the fault model;
//! * [`loss`] — Bernoulli (i.i.d.) loss, Gilbert–Elliott bursty loss, a
//!   duty-cycled [`loss::Interferer`] reproducing the WiFi-interferer
//!   setup of Fig. 7(b), bit-error loss through the CRC, and scripted
//!   loss;
//! * [`delay`] — constant/uniform/exponential propagation delays;
//! * [`link`] — a [`link::WirelessLink`] combining loss + delay into a
//!   `pte_sim::Channel`;
//! * [`topology`] — the star (base station + N remotes) wiring helper,
//!   enforcing "no direct wireless links between remote entities".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod delay;
pub mod link;
pub mod loss;
pub mod packet;
pub mod topology;

pub use delay::DelayModel;
pub use link::WirelessLink;
pub use loss::{BernoulliLoss, GilbertElliott, Interferer, LossModel, ScriptedLoss};
pub use packet::{crc32, Packet};
pub use topology::StarTopology;
