//! The wire codec as the daemon uses it: requests, replies and snapshots are
//! written without a `Value` tree, and must be byte for byte what the tree
//! path wrote; they are read without one too, and the typed reader must
//! agree with the tree reader on near-miss lines; hostile lines and non-BMP
//! names go through a real loopback `Server`; a large `Tick` reply decodes
//! in linear time.

#[path = "../../shims/serde_json/tests/support/mutate.rs"]
mod mutate;

use mutate::{mutate, typed_matches_tree};
use oef_cluster::ClusterTopology;
use oef_service::{
    Command, ErrorCode, Reply, Request, Response, RoundSummary, SchedulerService, Server,
    ServiceClient, ServiceConfig, ServiceSnapshot, TenantRoundSummary, WireTraceContext,
};
use proptest::prelude::*;
use serde::Serialize;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// What `serde_json::to_string` produced before the direct writer existed.
fn through_tree<T: Serialize>(value: &T) -> String {
    let mut out = String::new();
    value.serialize().write_json(&mut out).unwrap();
    out
}

fn coin(rng: &mut TestRng) -> bool {
    rng.next_u64() & 1 == 1
}

fn name(rng: &mut TestRng) -> String {
    const PIECES: &[&str] = &["team", "-", "\"", "\\", "\n", "é", "漢", "😀", "\u{2}", " "];
    (0..rng.next_u64() % 5)
        .map(|_| PIECES[(rng.next_u64() % PIECES.len() as u64) as usize])
        .collect()
}

fn speedup(rng: &mut TestRng) -> Vec<f64> {
    let mut profile = vec![1.0];
    for _ in 0..rng.next_u64() % 4 {
        profile.push(profile.last().unwrap() + rng.next_f64());
    }
    profile
}

#[derive(Debug, Clone, Copy)]
struct AnyCommand;

impl Strategy for AnyCommand {
    type Value = Command;

    fn sample(&self, rng: &mut TestRng) -> Command {
        match rng.next_u64() % 15 {
            0 => Command::TenantJoin {
                name: name(rng),
                weight: rng.next_u64() as u32,
                speedup: speedup(rng),
            },
            1 => Command::TenantLeave {
                tenant: rng.next_u64(),
            },
            2 => Command::UpdateSpeedups {
                tenant: rng.next_u64(),
                speedup: speedup(rng),
            },
            3 => Command::SubmitJob {
                tenant: rng.next_u64(),
                model: name(rng),
                workers: rng.next_u64() as usize % 64,
                total_work: rng.next_f64() * 1e9,
            },
            4 => Command::JobFinished {
                tenant: rng.next_u64(),
                job: rng.next_u64(),
            },
            5 => Command::AddHost {
                gpu_type: rng.next_u64() as usize % 8,
                num_gpus: rng.next_u64() as usize % 16,
            },
            6 => Command::RemoveHost {
                handle: rng.next_u64(),
            },
            7 => Command::MigrateTenant {
                tenant: rng.next_u64(),
                shard: rng.next_u64() as usize % 16,
            },
            8 => Command::Rebalance,
            9 => Command::Tick,
            10 => Command::Metrics,
            11 => Command::Snapshot,
            12 => Command::Restore {
                snapshot: format!("{{\"name\":{:?}}}", name(rng)),
            },
            13 => Command::Status,
            _ => Command::Shutdown,
        }
    }
}

/// A `Tick` reply the size the daemon sends: one entry per tenant.
fn tick_reply(id: u64, tenants: usize, rng: &mut TestRng) -> Reply {
    let tenants = (0..tenants as u64)
        .map(|t| TenantRoundSummary {
            tenant: (rng.next_u64() % 4) << 56 | (t + 1),
            estimated_throughput: rng.next_f64() * 8.0,
            actual_throughput: rng.next_f64() * 8.0,
            devices_held: rng.next_u64() as usize % 9,
            gpu_shares: (0..3).map(|_| rng.next_f64() * 4.0).collect(),
        })
        .collect();
    Reply::new(
        id,
        Response::RoundCompleted(RoundSummary {
            round: rng.next_u64() as usize % 100_000,
            time_secs: rng.next_f64() * 1e7,
            solver_time_secs: rng.next_f64() * 1e-3,
            warm_start: coin(rng),
            tenants,
        }),
    )
}

#[derive(Debug, Clone, Copy)]
struct AnyTickReply;

impl Strategy for AnyTickReply {
    type Value = Reply;

    fn sample(&self, rng: &mut TestRng) -> Reply {
        // Mostly small, with the occasional reply as large as the benchmark's.
        let tenants = match rng.next_u64() % 8 {
            0 => 0,
            1 => (rng.next_u64() % 2001) as usize,
            _ => (rng.next_u64() % 40) as usize,
        };
        let mut reply = tick_reply(rng.next_u64(), tenants, rng);
        if coin(rng) {
            reply.trace_id = Some(format!("{:016x}", rng.next_u64()));
        }
        reply
    }
}

/// A service in an arbitrary reachable state: joins, jobs, host churn,
/// leaves and rounds in random order (refused commands are part of the mix).
#[derive(Debug, Clone, Copy)]
struct AnyService;

impl Strategy for AnyService {
    type Value = SchedulerService;

    fn sample(&self, rng: &mut TestRng) -> SchedulerService {
        let mut service =
            SchedulerService::new(ClusterTopology::paper_cluster(), ServiceConfig::default())
                .unwrap();
        let mut tenants = Vec::new();
        let mut hosts = Vec::new();
        for _ in 0..rng.next_u64() % 40 {
            match rng.next_u64() % 8 {
                0 | 1 => {
                    if let Response::TenantJoined { tenant } = service.apply(
                        Command::TenantJoin {
                            name: name(rng),
                            weight: 1 + rng.next_u64() as u32 % 3,
                            speedup: vec![1.0, 1.0 + rng.next_f64(), 2.0 + rng.next_f64()],
                        },
                        0,
                    ) {
                        tenants.push(tenant);
                    }
                }
                2 | 3 if !tenants.is_empty() => {
                    let tenant = tenants[rng.next_u64() as usize % tenants.len()];
                    service.apply(
                        Command::SubmitJob {
                            tenant,
                            model: name(rng),
                            workers: 1 + rng.next_u64() as usize % 4,
                            total_work: 1.0 + rng.next_f64() * 1e5,
                        },
                        0,
                    );
                }
                4 if !tenants.is_empty() => {
                    let tenant = tenants.swap_remove(rng.next_u64() as usize % tenants.len());
                    service.apply(Command::TenantLeave { tenant }, 0);
                }
                5 => {
                    if let Response::HostAdded { host } = service.apply(
                        Command::AddHost {
                            gpu_type: rng.next_u64() as usize % 3,
                            num_gpus: 1 + rng.next_u64() as usize % 4,
                        },
                        0,
                    ) {
                        hosts.push(host);
                    }
                }
                6 if !hosts.is_empty() => {
                    let handle = hosts.swap_remove(rng.next_u64() as usize % hosts.len());
                    service.apply(Command::RemoveHost { handle }, 0);
                }
                _ => {
                    service.apply(Command::Tick, 0);
                }
            }
        }
        service
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn requests_are_written_as_the_tree_wrote_them(
        command in AnyCommand,
        id in 0u64..=u64::MAX,
        traced in 0u8..2,
    ) {
        let line = serde_json::to_string(&command).unwrap();
        prop_assert_eq!(&line, &through_tree(&command));
        prop_assert_eq!(serde_json::from_str::<Command>(&line).unwrap(), command.clone());

        let mut request = Request::new(id, command);
        if traced == 1 {
            request.trace = Some(WireTraceContext {
                trace_id: format!("{id:016x}"),
                parent_span: "0000000000000001".to_string(),
                sampled: true,
            });
        }
        let line = serde_json::to_string(&request).unwrap();
        prop_assert_eq!(&line, &through_tree(&request));
        prop_assert_eq!(line.contains("\"trace\""), traced == 1);
        prop_assert_eq!(serde_json::from_str::<Request>(&line).unwrap(), request);
    }

    #[test]
    fn tick_replies_are_written_as_the_tree_wrote_them(reply in AnyTickReply) {
        let line = serde_json::to_string(&reply).unwrap();
        prop_assert_eq!(&line, &through_tree(&reply));
        prop_assert!(!line.contains('\n'), "wire lines must be single lines");
        prop_assert_eq!(serde_json::from_str::<Reply>(&line).unwrap(), reply);
    }
}

/// A small reply of any kind the client decodes: a short tick, an error, a
/// multi-field variant or a bare unit variant, traced or not.
fn any_small_reply(rng: &mut TestRng) -> Reply {
    let id = rng.next_u64();
    let mut reply = match rng.next_u64() % 4 {
        0 => tick_reply(id, (rng.next_u64() % 6) as usize, rng),
        1 => Reply::new(
            id,
            Response::Error {
                code: ErrorCode::UnknownTenant,
                message: name(rng),
            },
        ),
        2 => Reply::new(
            id,
            Response::TenantMigrated {
                tenant: rng.next_u64(),
                previous: rng.next_u64(),
                from: 0,
                to: 3,
            },
        ),
        _ => Reply::new(id, Response::ShuttingDown),
    };
    if coin(rng) {
        reply.trace_id = Some(format!("{:016x}", rng.next_u64()));
    }
    reply
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn typed_decoding_agrees_with_the_tree_on_near_miss_wire_lines(
        command in AnyCommand,
        seed in 0u64..=u64::MAX,
    ) {
        let mut rng = TestRng::deterministic(&seed.to_string());
        let mut request = Request::new(seed, command.clone());
        if coin(&mut rng) {
            request.trace = Some(WireTraceContext {
                trace_id: format!("{seed:016x}"),
                parent_span: "0".to_string(),
                sampled: coin(&mut rng),
            });
        }
        let command_line = serde_json::to_string(&command).unwrap();
        let request_line = serde_json::to_string(&request).unwrap();
        let reply_line = serde_json::to_string(&any_small_reply(&mut rng)).unwrap();
        for _ in 0..12 {
            for verdict in [
                typed_matches_tree::<Command>(&mutate(&command_line, &mut rng)),
                typed_matches_tree::<Request>(&mutate(&request_line, &mut rng)),
                typed_matches_tree::<Reply>(&mutate(&reply_line, &mut rng)),
                typed_matches_tree::<Request>(&mutate(&mutate(&request_line, &mut rng), &mut rng)),
            ] {
                prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn snapshots_are_written_as_the_tree_wrote_them_and_restore_to_the_same_bytes(
        service in AnyService,
    ) {
        let written = service.snapshot_json().unwrap();
        prop_assert_eq!(&written, &through_tree(&service.snapshot_ref()));

        // The owned decode form is the same document…
        let owned: ServiceSnapshot = serde_json::from_str(&written).unwrap();
        prop_assert_eq!(&serde_json::to_string(&owned).unwrap(), &written);
        prop_assert_eq!(&through_tree(&owned), &written);
        prop_assert_eq!(&serde_json::from_str::<ServiceSnapshot>(&written).unwrap(), &owned);

        // …and a daemon restored from it writes it back unchanged.
        let restored = SchedulerService::from_snapshot_json(&written).unwrap();
        prop_assert_eq!(restored.snapshot_json().unwrap(), written);
    }
}

/// The defect this guards against made decoding quadratic in the size of the
/// line (a 73 KB reply cost 30 ms, this one would cost seconds in release
/// and minutes unoptimized).  Linear decoding takes milliseconds, so the
/// bound is loose enough to hold on a loaded machine in a debug build.
#[test]
fn a_four_thousand_tenant_tick_reply_decodes_in_linear_time() {
    let mut rng = TestRng::deterministic("a_four_thousand_tenant_tick_reply");
    let reply = tick_reply(9, 4000, &mut rng);
    let line = serde_json::to_string(&reply).unwrap();
    assert!(line.len() > 400_000, "the reply is {} bytes", line.len());

    let started = Instant::now();
    let back: Reply = serde_json::from_str(&line).unwrap();
    let elapsed = started.elapsed();
    assert_eq!(back, reply);
    assert!(
        elapsed < Duration::from_secs(5),
        "decoding a {}-byte Tick reply took {elapsed:?}; the codec is super-linear again",
        line.len()
    );
}

#[test]
fn a_request_nested_ten_thousand_levels_deep_is_refused_without_overflowing_the_stack() {
    let arrays = |inner: &str| format!("{}{inner}{}", "[".repeat(10_000), "]".repeat(10_000));
    let objects = format!("{}0{}", "{\"a\":".repeat(10_000), "}".repeat(10_000));
    // The nesting sits where each typed reader meets it: the command itself,
    // a typed field, an unknown field that is skipped, an optional field.
    let lines = [
        format!("{{\"id\":1,\"command\":{}}}", arrays("0")),
        format!(
            "{{\"id\":1,\"command\":{{\"TenantJoin\":{{\"name\":\"a\",\"weight\":1,\
             \"speedup\":{}}}}}}}",
            arrays("1.0")
        ),
        format!(
            "{{\"id\":1,\"command\":{{\"Restore\":{{\"snapshot\":\"s\",\"extra\":{objects}}}}}}}"
        ),
        format!("{{\"id\":1,\"command\":\"Status\",\"trace\":{objects}}}"),
        format!("{{\"id\":1,\"zz\":{},\"command\":\"Status\"}}", arrays("0")),
    ];
    // A small stack: a reader that recursed once per level would die here.
    let errors = std::thread::Builder::new()
        .stack_size(256 * 1024)
        .spawn(move || {
            lines
                .iter()
                .map(|line| serde_json::from_str::<Request>(line).map(|_| ()))
                .collect::<Vec<_>>()
        })
        .unwrap()
        .join()
        .expect("the typed reader must not overflow its stack");
    for result in errors {
        let err = result.unwrap_err().to_string();
        assert!(err.contains("nesting deeper than 128 levels"), "{err}");
    }
}

#[test]
fn missing_fields_are_named_and_out_of_range_integers_refused() {
    for (line, field) in [
        ("{\"command\":\"Status\"}", "id"),
        ("{\"id\":1}", "command"),
        (
            "{\"id\":1,\"command\":{\"TenantJoin\":{\"name\":\"a\",\"speedup\":[1.0]}}}",
            "weight",
        ),
        (
            "{\"id\":1,\"command\":\"Tick\",\"trace\":{\"trace_id\":\"1\"}}",
            "parent_span",
        ),
    ] {
        let err = serde_json::from_str::<Request>(line)
            .unwrap_err()
            .to_string();
        assert!(
            err.contains(&format!("missing field `{field}`")),
            "{line}: {err}"
        );
    }
    let err = serde_json::from_str::<Reply>("{\"id\":1}")
        .unwrap_err()
        .to_string();
    assert!(err.contains("missing field `response`"), "{err}");

    // An integral float names a tenant or job only when it names exactly one.
    for line in [
        "{\"id\":9,\"command\":{\"TenantLeave\":{\"tenant\":1e20}}}",
        "{\"id\":9,\"command\":{\"JobFinished\":{\"tenant\":1,\"job\":9007199254740993.0}}}",
    ] {
        assert!(serde_json::from_str::<Request>(line).is_err(), "{line}");
    }
    let request: Request =
        serde_json::from_str("{\"id\":9,\"command\":{\"TenantLeave\":{\"tenant\":4.0}}}").unwrap();
    assert_eq!(request.command, Command::TenantLeave { tenant: 4 });
}

fn spawn_daemon() -> Server {
    let service = SchedulerService::new(ClusterTopology::paper_cluster(), ServiceConfig::default())
        .expect("service builds");
    Server::spawn(service, "127.0.0.1:0").expect("daemon binds")
}

/// Sends one raw line and reads the one reply line it is owed.
fn exchange(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Reply {
    stream.write_all(line.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut reply = String::new();
    reader.read_line(&mut reply).unwrap();
    serde_json::from_str(reply.trim_end()).expect("the daemon replies with a Reply line")
}

#[test]
fn a_hostile_deeply_nested_line_gets_an_error_reply_and_the_daemon_keeps_serving() {
    let server = spawn_daemon();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // Unbounded recursive descent overflows the connection thread's stack on
    // this line and aborts the whole process.
    let reply = exchange(&mut stream, &mut reader, &"[".repeat(100_000));
    match reply.response {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::InvalidArgument);
            assert!(message.contains("malformed request"), "{message}");
            assert!(message.contains("nesting deeper than 128"), "{message}");
        }
        other => panic!("expected an error reply, got {other:?}"),
    }
    let nested_command = format!(
        "{{\"id\":1,\"command\":{{\"Restore\":{{\"snapshot\":{}0{}}}}}}}",
        "[".repeat(5_000),
        "]".repeat(5_000)
    );
    let reply = exchange(&mut stream, &mut reader, &nested_command);
    assert!(matches!(reply.response, Response::Error { .. }));

    // Same connection, then a fresh one: both still served.
    let reply = exchange(
        &mut stream,
        &mut reader,
        "{\"id\":7,\"command\":\"Status\"}",
    );
    assert_eq!(reply.id, 7);
    assert!(matches!(reply.response, Response::Status(_)));
    // An escaped key is the same key; an integer field refuses 1e20.
    let reply = exchange(
        &mut stream,
        &mut reader,
        "{\"\\u0069d\":8,\"command\":\"Status\"}",
    );
    assert_eq!(reply.id, 8);
    assert!(matches!(reply.response, Response::Status(_)));
    let reply = exchange(
        &mut stream,
        &mut reader,
        "{\"id\":9,\"command\":{\"TenantLeave\":{\"tenant\":1e20}}}",
    );
    assert!(
        matches!(
            &reply.response,
            Response::Error {
                code: ErrorCode::InvalidArgument,
                ..
            }
        ),
        "{:?}",
        reply.response
    );
    let mut client = ServiceClient::connect(server.local_addr()).unwrap();
    assert_eq!(client.status().unwrap().tenants, 0);
    client.shutdown().unwrap();
    server.join();
}

#[test]
fn a_non_bmp_tenant_name_sent_as_a_surrogate_pair_joins_and_round_trips() {
    let server = spawn_daemon();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // Clients that escape non-ASCII (many JSON encoders do by default) spell
    // U+1F600 as a UTF-16 surrogate pair.
    let join = "{\"id\":1,\"command\":{\"TenantJoin\":{\"name\":\"team-\\ud83d\\ude00\",\
                \"weight\":1,\"speedup\":[1.0,1.5,2.0]}}}";
    let reply = exchange(&mut stream, &mut reader, join);
    let Response::TenantJoined { tenant } = reply.response else {
        panic!("join refused: {:?}", reply.response);
    };
    // A lone surrogate is not a character: refused, nothing registered.
    let lone = join.replace("\\ude00", "");
    let reply = exchange(&mut stream, &mut reader, &lone);
    assert!(
        matches!(&reply.response, Response::Error { message, .. } if message.contains("lone surrogate")),
        "{:?}",
        reply.response
    );

    let mut client = ServiceClient::connect(server.local_addr()).unwrap();
    assert_eq!(client.status().unwrap().tenants, 1);
    // The name the daemon stored is the character itself; it survives the
    // snapshot text and a restore into a second daemon.
    let snapshot = client.snapshot().unwrap();
    assert!(snapshot.contains("\"team-😀\""), "{snapshot}");
    let restored = SchedulerService::from_snapshot_json(&snapshot).unwrap();
    assert_eq!(restored.state().tenants()[0].name, "team-😀");
    assert_eq!(restored.tenant_handles(), [tenant]);
    client.shutdown().unwrap();
    server.join();
}
