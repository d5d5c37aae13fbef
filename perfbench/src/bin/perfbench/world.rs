//! The three workloads: what each builds, why it was chosen, and the
//! condition every generated message carries.

use std::path::PathBuf;
use std::sync::Arc;

use conditional_messaging::condmsg::{
    CondConfig, CondMessageId, Condition, ConditionalMessenger, Destination, DestinationSet,
};
use conditional_messaging::mq::channel::Channel;
use conditional_messaging::mq::journal::{GroupCommitConfig, GroupCommitJournal, NullJournal};
use conditional_messaging::mq::transport::tcp::{TcpAcceptor, TcpConfig};
use conditional_messaging::mq::{Clock, Obs, QueueManager, SharedClock, SystemClock};
use conditional_messaging::simtime::Millis;

use crate::gen::{make_payload, MsgSpec};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    LocalDurableFanout,
    RelayTcp,
    ExpiryBacklog,
}

/// The design record of one workload: why it exists, which layer it is
/// meant to load, and its fixed load parameters.
pub struct Design {
    pub name: &'static str,
    pub why: &'static str,
    /// The per-layer metrics this workload is meant to move.
    pub moves: &'static str,
    /// Open-loop offered rate: a quarter to a third of the saturation rate
    /// measured on the code this benchmark landed on (2-core x86-64 host).
    /// At about half, the open-loop p95 did not repeat within its bound
    /// whenever the host's CPU slowed.
    pub offered_per_s: f64,
    /// Conditional messages kept outstanding in the saturation phase.
    pub outstanding: usize,
    /// How many times set-up runs per invocation (median reported).
    pub setups: usize,
    /// Pending messages preloaded during set-up.
    pub preload: usize,
    /// One generated message in this many carries the lagging leaf.
    pub late_one_in: u64,
}

pub const ALL: [Workload; 3] = [
    Workload::LocalDurableFanout,
    Workload::RelayTcp,
    Workload::ExpiryBacklog,
];

/// Pick-up/processing window of every leaf that must succeed.
pub const LONG_WINDOW: Millis = Millis(60_000);
/// Pick-up window of the lagging leaf (`expiry_backlog`).
pub const LATE_WINDOW: Millis = Millis(200);
/// Window of the preloaded messages: none may decide during a run.
pub const PRELOAD_WINDOW: Millis = Millis(3_600_000);
/// Number of rotating lagging queues; one is swept per second.
pub const LATE_SLOTS: usize = 4;

impl Workload {
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.design().name == name)
    }

    pub fn design(self) -> Design {
        match self {
            Workload::LocalDurableFanout => Design {
                name: "local_durable_fanout",
                why: "one manager on a group-commit file journal; every commit is durable, so \
                      the journal and per-transaction cost do almost all the work and no \
                      transport runs",
                moves: "journal.*, messenger.tx_per_decided, receiver.commit_us.p99 -> \
                        send_us.*, decided_per_s, verdict_ms.*",
                offered_per_s: 110.0,
                outstanding: 16,
                setups: 15,
                preload: 0,
                late_one_in: 0,
            },
            Workload::RelayTcp => Design {
                name: "relay_tcp",
                why: "three managers on loopback TCP (sender -> relay -> receiver, routes both \
                      ways), in-memory journals; every original and ack crosses two sockets \
                      and a relay custody handoff",
                moves: "transport.*, codec.encodes_per_msg, relay.* -> verdict_ms.*, \
                        decided_per_s",
                offered_per_s: 850.0,
                outstanding: 64,
                setups: 15,
                preload: 0,
                late_one_in: 0,
            },
            Workload::ExpiryBacklog => Design {
                name: "expiry_backlog",
                why: "one in-memory manager holding ~100k preloaded pending messages with \
                      one-hour windows; a quarter of the stream fails on a 200 ms lagging leaf, \
                      releasing compensations that the receiver annihilates",
                moves: "messenger.*, simtime.pending_timers_peak, store.*, receiver.annihilated \
                        -> decided_per_s, messenger.failure_ms.p99, setup_s, peak_rss_mb",
                offered_per_s: 450.0,
                outstanding: 256,
                setups: 3,
                preload: 100_000,
                late_one_in: 4,
            },
        }
    }
}

/// A built deployment: managers, the sending messenger, and the queues
/// the receiver thread drains.
pub struct World {
    pub clock: Arc<SystemClock>,
    pub obs: Arc<Obs>,
    /// Sender first, receiver last (the same manager when local).
    pub managers: Vec<Arc<QueueManager>>,
    pub messenger: Arc<ConditionalMessenger>,
    /// Manager name the destination queues live on.
    pub dest_manager: String,
    /// Queues read with a plain (pick-up) read.
    pub pickup: Vec<String>,
    /// Pick-up leaves per message (the lagging leaf excluded).
    pub pickup_leaves: usize,
    /// Queues read with a transactional read and `commit_tx`.
    pub process: Vec<String>,
    /// Rotating lagging queues, swept about once a second.
    pub late: Vec<String>,
    pub preloaded: Vec<CondMessageId>,
    journal_path: Option<PathBuf>,
    _acceptors: Vec<Arc<TcpAcceptor>>,
    _channels: Vec<Channel>,
}

fn messenger_config() -> CondConfig {
    CondConfig {
        event_driven: true,
        ..CondConfig::default()
    }
}

fn names(prefix: &str, n: usize) -> Vec<String> {
    (0..n).map(|i| format!("{prefix}{i}")).collect()
}

impl World {
    /// Builds the workload's deployment, including any preload.
    pub fn build(workload: Workload, preload: usize, out_dir: &std::path::Path) -> World {
        let clock = SystemClock::new();
        let shared: SharedClock = clock.clone();
        let obs = Obs::new();
        // In-memory managers discard their journal, so the journal does no
        // work there; the durable workload sets a file journal instead.
        let manager = |name: &str| {
            QueueManager::builder(name)
                .clock(shared.clone())
                .obs(obs.clone())
                .journal(NullJournal::new())
        };
        match workload {
            Workload::LocalDurableFanout => {
                static NEXT: std::sync::atomic::AtomicUsize =
                    std::sync::atomic::AtomicUsize::new(0);
                let k = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                let path = out_dir.join(format!("journal-{}-{k}.log", std::process::id()));
                let _ = std::fs::remove_file(&path);
                let journal = GroupCommitJournal::open_file(&path, GroupCommitConfig::default())
                    .expect("open group-commit file journal");
                let qm = manager("QM.LOCAL")
                    .journal(journal)
                    .build()
                    .expect("build manager");
                let pickup = names("Q.PICK.", 4);
                let process = names("Q.PROC.", 4);
                for q in pickup.iter().chain(&process) {
                    qm.create_queue(q.as_str()).expect("create queue");
                }
                let messenger = ConditionalMessenger::with_config(qm.clone(), messenger_config())
                    .expect("messenger");
                World {
                    clock,
                    obs,
                    dest_manager: qm.name().to_owned(),
                    managers: vec![qm],
                    messenger,
                    pickup,
                    pickup_leaves: 2,
                    process,
                    late: Vec::new(),
                    preloaded: Vec::new(),
                    journal_path: Some(path),
                    _acceptors: Vec::new(),
                    _channels: Vec::new(),
                }
            }
            Workload::RelayTcp => {
                let chain = ["QM.SEND", "QM.RELAY", "QM.RECV"];
                let managers: Vec<Arc<QueueManager>> = chain
                    .iter()
                    .map(|n| manager(n).build().expect("build manager"))
                    .collect();
                let acceptors: Vec<Arc<TcpAcceptor>> = managers
                    .iter()
                    .map(|m| TcpAcceptor::bind(m, "127.0.0.1:0").expect("bind acceptor"))
                    .collect();
                let mut channels = Vec::new();
                for (from, to) in [(0, 1), (1, 0), (1, 2), (2, 1)] {
                    channels.push(
                        Channel::connect_tcp(
                            &managers[from],
                            chain[to],
                            acceptors[to].local_addr(),
                            TcpConfig::default(),
                        )
                        .expect("connect channel"),
                    );
                }
                // The ends reach each other only through the relay.
                managers[0]
                    .define_route(chain[2], "SYSTEM.XMIT.QM.RELAY")
                    .expect("route");
                managers[2]
                    .define_route(chain[0], "SYSTEM.XMIT.QM.RELAY")
                    .expect("route");
                let pickup = names("Q.REMOTE.", 4);
                for q in &pickup {
                    managers[2].create_queue(q.as_str()).expect("create queue");
                }
                let messenger =
                    ConditionalMessenger::with_config(managers[0].clone(), messenger_config())
                        .expect("messenger");
                World {
                    clock,
                    obs,
                    dest_manager: chain[2].to_owned(),
                    managers,
                    messenger,
                    pickup,
                    pickup_leaves: 2,
                    process: Vec::new(),
                    late: Vec::new(),
                    preloaded: Vec::new(),
                    journal_path: None,
                    _acceptors: acceptors,
                    _channels: channels,
                }
            }
            Workload::ExpiryBacklog => {
                let qm = manager("QM.EXPIRY").build().expect("build manager");
                let pickup = names("Q.PICK.", 6);
                let late = names("Q.LATE.", LATE_SLOTS);
                for q in pickup.iter().chain(&late) {
                    qm.create_queue(q.as_str()).expect("create queue");
                }
                qm.create_queue("Q.PARK").expect("create queue");
                let messenger = ConditionalMessenger::with_config(qm.clone(), messenger_config())
                    .expect("messenger");
                let parked: Condition = Destination::queue(qm.name(), "Q.PARK")
                    .pickup_within(PRELOAD_WINDOW)
                    .into();
                let payload = make_payload(32);
                let preloaded = (0..preload)
                    .map(|_| {
                        messenger
                            .send_message(payload.clone(), &parked)
                            .expect("preload send")
                    })
                    .collect();
                World {
                    clock,
                    obs,
                    dest_manager: qm.name().to_owned(),
                    managers: vec![qm],
                    messenger,
                    pickup,
                    pickup_leaves: 3,
                    process: Vec::new(),
                    late,
                    preloaded,
                    journal_path: None,
                    _acceptors: Vec::new(),
                    _channels: Vec::new(),
                }
            }
        }
    }

    /// The shared clock's current time, in milliseconds.
    pub fn clock_now(&self) -> u64 {
        self.clock.now().as_millis()
    }

    /// Bytes held by every manager's journal.
    pub fn journal_bytes(&self) -> u64 {
        self.managers.iter().map(|m| m.journal().len_bytes()).sum()
    }

    pub fn sender(&self) -> &Arc<QueueManager> {
        &self.managers[0]
    }

    pub fn receiver(&self) -> &Arc<QueueManager> {
        self.managers.last().expect("at least one manager")
    }

    /// Leaves per message that the receiver reads on time.
    pub fn on_time_leaves(&self) -> usize {
        self.pickup_leaves + if self.process.is_empty() { 0 } else { 2 }
    }

    /// The condition a generated message carries; `late_slot` picks the
    /// lagging queue for messages that get the lagging leaf.
    pub fn condition(&self, spec: &MsgSpec, late_slot: usize) -> Condition {
        let dest = |q: &String| Destination::queue(self.dest_manager.as_str(), q.as_str());
        let mut members: Vec<Condition> = (0..self.pickup_leaves)
            .map(|i| {
                dest(&self.pickup[(spec.rotation + i) % self.pickup.len()])
                    .pickup_within(LONG_WINDOW)
                    .into()
            })
            .collect();
        if !self.process.is_empty() {
            members.extend((0..2).map(|i| {
                dest(&self.process[(spec.rotation + i) % self.process.len()])
                    .process_within(LONG_WINDOW)
                    .into()
            }));
        }
        if spec.late {
            members.push(
                dest(&self.late[late_slot % self.late.len()])
                    .pickup_within(LATE_WINDOW)
                    .into(),
            );
        }
        DestinationSet::of(members).into()
    }

    /// Stops every manager (and with them channels and acceptors) and
    /// removes the journal file.
    pub fn shutdown(&self) {
        for m in &self.managers {
            m.shutdown();
        }
        if let Some(path) = &self.journal_path {
            let _ = std::fs::remove_file(path);
        }
    }
}
