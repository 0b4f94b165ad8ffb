//! One test per textual claim of the paper, named by section. These are
//! the executable versions of statements the paper makes in prose.

use std::time::Duration;

use actorspace::prelude::*;

const TIMEOUT: Duration = Duration::from_secs(15);

/// §1: "a set may be described … by enumerating its elements, or by
/// specifying a characteristic function" — address the same group by
/// explicit enumeration and by pattern; same recipients.
#[test]
fn s1_enumeration_equals_characteristic_function() {
    let system = ActorSystem::new(Config::default());
    let space = system.create_space(None).unwrap();
    let (inbox, rx) = system.inbox();
    let mut enumerated = Vec::new();
    for i in 0..5 {
        let a = system.spawn(from_fn(move |ctx, msg| {
            let me = ctx.self_id();
            ctx.send_addr(msg.body.as_addr().unwrap(), Value::Addr(me));
        }));
        system
            .make_visible(a.id(), &path(&format!("group/m{i}")), space, None)
            .unwrap();
        enumerated.push(a.leak());
    }
    // By pattern.
    system
        .broadcast(&pattern("group/*"), space, Value::Addr(inbox), None)
        .unwrap();
    let mut by_pattern = Vec::new();
    for _ in 0..5 {
        by_pattern.push(rx.recv_timeout(TIMEOUT).unwrap().body.as_addr().unwrap());
    }
    // By enumeration.
    for &a in &enumerated {
        system.send_to(a, Value::Addr(inbox));
    }
    let mut by_enumeration = Vec::new();
    for _ in 0..5 {
        by_enumeration.push(rx.recv_timeout(TIMEOUT).unwrap().body.as_addr().unwrap());
    }
    by_pattern.sort_unstable();
    by_enumeration.sort_unstable();
    assert_eq!(by_pattern, by_enumeration);
    system.shutdown();
}

/// §1: "computational objects … may dynamically change their behavior
/// while retaining their identity" — the mathematical metaphor breaks
/// down; the same address answers differently after `become`.
#[test]
fn s1_identity_survives_behavior_change() {
    let system = ActorSystem::new(Config::default());
    let (inbox, rx) = system.inbox();
    let a = system.spawn(from_fn(move |ctx, msg| {
        if msg.body == Value::str("switch") {
            ctx.become_(from_fn(move |c2, m2| {
                c2.send_addr(inbox, Value::list([Value::str("after"), m2.body]));
            }));
        } else {
            ctx.send_addr(inbox, Value::list([Value::str("before"), msg.body]));
        }
    }));
    let id_before = a.id();
    a.send(Value::int(1));
    assert_eq!(
        rx.recv_timeout(TIMEOUT).unwrap().body.as_list().unwrap()[0],
        Value::str("before")
    );
    a.send(Value::str("switch"));
    a.send(Value::int(2));
    assert_eq!(
        rx.recv_timeout(TIMEOUT).unwrap().body.as_list().unwrap()[0],
        Value::str("after")
    );
    assert_eq!(a.id(), id_before, "identity (mail address) is retained");
    system.shutdown();
}

/// §3: "in ActorSpace, by contrast, the visible attributes of a message's
/// recipient are specified by the sender" — a receiver with the wrong
/// attributes cannot intercept, unlike the Linda tuple theft.
#[test]
fn s3_no_interception_by_wrong_attributes() {
    let system = ActorSystem::new(Config::default());
    let space = system.create_space(None).unwrap();
    let (inbox, rx) = system.inbox();
    // Mallory advertises a *different* attribute and cannot receive
    // messages addressed to `payroll/*`.
    let mallory = system.spawn(from_fn(move |ctx, _| {
        ctx.send_addr(inbox, Value::str("INTERCEPTED"));
    }));
    system
        .make_visible(mallory.id(), &path("printer/laser"), space, None)
        .unwrap();
    let alice = system.spawn(from_fn(move |ctx, msg| {
        ctx.send_addr(inbox, msg.body);
    }));
    system
        .make_visible(alice.id(), &path("payroll/alice"), space, None)
        .unwrap();
    system
        .send_pattern(&pattern("payroll/*"), space, Value::int(9), None)
        .unwrap();
    assert_eq!(rx.recv_timeout(TIMEOUT).unwrap().body, Value::int(9));
    // Contrast: the Linda baseline demonstrates the theft in its own tests
    // (actorspace_baselines::tuple_space::no_access_control_any_reader_can_consume).
    system.shutdown();
}

/// §3: "changes in a group of potential receivers must be explicitly
/// communicated" in plain Actors — here group changes are invisible to the
/// sender: the same pattern keeps working as membership churns.
#[test]
fn s3_group_membership_changes_are_transparent() {
    let system = ActorSystem::new(Config::default());
    let space = system.create_space(None).unwrap();
    let (inbox, rx) = system.inbox();
    let spawn_member = |tag: i64| {
        let m = system.spawn(from_fn(move |ctx, msg| {
            ctx.send_addr(msg.body.as_addr().unwrap(), Value::int(tag));
        }));
        system
            .make_visible(m.id(), &path("pool/w"), space, None)
            .unwrap();
        m
    };
    let first = spawn_member(1);
    system
        .send_pattern(&pattern("pool/*"), space, Value::Addr(inbox), None)
        .unwrap();
    assert_eq!(rx.recv_timeout(TIMEOUT).unwrap().body, Value::int(1));
    // Membership churns; the client's pattern never changes.
    let _second = spawn_member(2).leak();
    system.make_invisible(first.id(), space, None).unwrap();
    system
        .send_pattern(&pattern("pool/*"), space, Value::Addr(inbox), None)
        .unwrap();
    assert_eq!(rx.recv_timeout(TIMEOUT).unwrap().body, Value::int(2));
    system.shutdown();
}

/// §5: attributes embed in a description lattice — a more general
/// description denotes more actors, and a disjunction of descriptions
/// denotes the union of what each denotes. Checked on what the system does
/// with descriptions: resolution in a populated space, including an actor
/// reached through a nested space (§7.1).
#[test]
fn s5_description_lattice() {
    use std::collections::BTreeSet;
    let system = ActorSystem::new(Config::default());
    let top = system.create_space(None).unwrap();
    let math = system.create_space(None).unwrap();
    system
        .make_visible(math, &path("srv/math"), top, None)
        .unwrap();
    let spawn = |attr: &str, space| {
        let a = system.spawn(from_fn(|_ctx, _msg| {}));
        system
            .make_visible(a.id(), &path(attr), space, None)
            .unwrap();
        a.leak()
    };
    spawn("srv/math/fib", top);
    spawn("fib", math);
    spawn("fact", math);
    spawn("sqrt", math);
    spawn("srv/text/upper", top);
    let recipients = |p: &str| -> BTreeSet<ActorId> {
        system
            .resolve(&pattern(p), top)
            .unwrap()
            .into_iter()
            .collect()
    };
    let any_math = recipients("srv/math/**");
    let fib_or_fact = recipients("srv/math/{fib, fact}");
    let fib = recipients("srv/math/fib");
    let fact = recipients("srv/math/fact");
    // Generalization: each description covers the more specific one, and
    // strictly so here.
    assert_eq!(fib.len(), 2);
    assert!(fib.is_subset(&fib_or_fact) && fib != fib_or_fact);
    assert!(fib_or_fact.is_subset(&any_math) && fib_or_fact != any_math);
    // Disjunction denotes the union.
    assert_eq!(fib_or_fact, &fib | &fact);
    // Nothing outside `srv/math` is reached.
    assert!(any_math.is_disjoint(&recipients("srv/text/*")));
    system.shutdown();
}

/// §5.2: "actorSpaces can be referred to by their actorSpace mail address
/// or by a pattern."
#[test]
fn s5_2_spaces_addressable_by_pattern() {
    let system = ActorSystem::new(Config::default());
    let top = system.create_space(None).unwrap();
    let pool = system.create_space(None).unwrap();
    system
        .make_visible(pool, &path("pools/alpha"), top, None)
        .unwrap();
    let found = system.resolve_spaces(&pattern("pools/*"), top).unwrap();
    assert_eq!(found, vec![pool]);
    system.shutdown();
}

/// §5.3: "broadcasts may be received by two actors in a different order
/// and point to point messages may be interleaved between two broadcasts"
/// — the system imposes no broadcast ordering (we verify no *global*
/// coordination is required: both interleavings are accepted outcomes).
#[test]
fn s5_3_no_global_broadcast_order_required() {
    // Deliver two broadcasts to two actors many times; assert only
    // per-actor integrity (both arrive exactly once per broadcast), never
    // a global order.
    let system = ActorSystem::new(Config::default());
    let space = system.create_space(None).unwrap();
    let (inbox, rx) = system.inbox();
    for tag in 0..2i64 {
        let a = system.spawn(from_fn(move |ctx, msg| {
            ctx.send_addr(
                msg.body.as_addr().unwrap(),
                Value::list([Value::int(tag), msg.body.clone()]),
            );
        }));
        system
            .make_visible(a.id(), &path("grp"), space, None)
            .unwrap();
        a.leak();
    }
    for _ in 0..10 {
        system
            .broadcast(&pattern("grp"), space, Value::Addr(inbox), None)
            .unwrap();
        let mut seen = Vec::new();
        for _ in 0..2 {
            seen.push(
                rx.recv_timeout(TIMEOUT).unwrap().body.as_list().unwrap()[0]
                    .as_int()
                    .unwrap(),
            );
        }
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1], "each member exactly once per broadcast");
    }
    system.shutdown();
}

/// §5.4: "actors are autonomous entities, so they are able to make
/// themselves visible or invisible"; spaces, being passive, cannot — the
/// API makes self-visibility an actor operation only.
#[test]
fn s5_4_actors_autonomous_spaces_passive() {
    let system = ActorSystem::new(Config::default());
    let arena = system.create_space(None).unwrap();
    let (inbox, rx) = system.inbox();
    let a = system.spawn(from_fn(move |ctx, msg| match msg.body.as_str() {
        Some("hide") => {
            ctx.make_self_invisible(arena, None).unwrap();
            ctx.send_addr(inbox, Value::str("hidden"));
        }
        Some("show") => {
            ctx.make_self_visible(&path("me"), arena, None).unwrap();
            ctx.send_addr(inbox, Value::str("shown"));
        }
        _ => {
            ctx.send_addr(inbox, msg.body);
        }
    }));
    a.send(Value::str("show"));
    assert_eq!(rx.recv_timeout(TIMEOUT).unwrap().body, Value::str("shown"));
    assert_eq!(system.resolve(&pattern("me"), arena).unwrap(), vec![a.id()]);
    a.send(Value::str("hide"));
    assert_eq!(rx.recv_timeout(TIMEOUT).unwrap().body, Value::str("hidden"));
    assert_eq!(system.resolve(&pattern("me"), arena).unwrap(), vec![]);
    system.shutdown();
}

/// §5.6: "delivery is asynchronous, but is guaranteed to eventually
/// happen" — under a lossy simulated network, every message still arrives
/// (exactly once).
#[test]
fn s5_6_eventual_delivery_under_faults() {
    use actorspace::net::{Cluster, ClusterConfig, LinkConfig};
    let cluster = Cluster::new(ClusterConfig {
        nodes: 2,
        data_link: LinkConfig::lossy(0.35, 0.25, 2024),
        retx_every: Duration::from_millis(5),
        ..ClusterConfig::default()
    });
    let (inbox, rx) = cluster.node(0).system().inbox();
    let space = cluster.node(0).create_space(None);
    let echo = cluster.node(1).spawn(from_fn(move |ctx, msg| {
        ctx.send_addr(inbox, msg.body);
    }));
    cluster
        .node(1)
        .make_visible(echo, &path("echo"), space, None)
        .unwrap();
    assert!(cluster.await_coherence(TIMEOUT));
    let n = 40;
    for i in 0..n {
        cluster
            .node(0)
            .send_pattern(&pattern("echo"), space, Value::int(i))
            .unwrap();
    }
    let mut got: Vec<i64> = (0..n)
        .map(|_| rx.recv_timeout(TIMEOUT).unwrap().body.as_int().unwrap())
        .collect();
    got.sort_unstable();
    assert_eq!(got, (0..n).collect::<Vec<_>>());
    cluster.shutdown();
}

/// §7.1: "they may be made visible in other actorSpaces, regardless of
/// whether or not they are visible in their 'host' actorSpace."
#[test]
fn s7_1_visibility_independent_of_host() {
    let system = ActorSystem::new(Config::default());
    let host = system.create_space(None).unwrap();
    let elsewhere = system.create_space(None).unwrap();
    let a = system.spawn_in(host, from_fn(|_, _| {}), None).unwrap();
    // Visible only in a foreign space, never in its host.
    system
        .make_visible(a.id(), &path("visitor"), elsewhere, None)
        .unwrap();
    assert_eq!(system.resolve(&pattern("**"), host).unwrap(), vec![]);
    assert_eq!(
        system.resolve(&pattern("visitor"), elsewhere).unwrap(),
        vec![a.id()]
    );
    system.shutdown();
}

/// §8: "persistent messages that would be automatically received by a new
/// participant whenever it enters an existing group."
#[test]
fn s8_persistent_protocol_message() {
    use actorspace_core::{ManagerPolicy, UnmatchedPolicy};
    let system = ActorSystem::new(Config::default());
    let policy = ManagerPolicy {
        unmatched_broadcast: UnmatchedPolicy::Persistent,
        ..Default::default()
    };
    let group = system.create_space(None).unwrap();
    system.set_space_policy(group, policy, None).unwrap();
    let (inbox, rx) = system.inbox();

    // The protocol announcement precedes any member.
    system
        .broadcast(&pattern("member/*"), group, Value::str("protocol-v2"), None)
        .unwrap();

    // Members join at different times; each receives it exactly once.
    for i in 0..3 {
        let m = system.spawn(from_fn(move |ctx, msg| {
            ctx.send_addr(inbox, Value::list([Value::int(i), msg.body]));
        }));
        system
            .make_visible(m.id(), &path(&format!("member/{i}")), group, None)
            .unwrap();
        m.leak();
        let got = rx.recv_timeout(TIMEOUT).unwrap();
        let parts = got.body.as_list().unwrap();
        assert_eq!(parts[0], Value::int(i));
        assert_eq!(parts[1], Value::str("protocol-v2"));
    }
    // No duplicates pending.
    system.await_idle(TIMEOUT);
    assert!(rx.try_recv().is_err());
    system.shutdown();
}
