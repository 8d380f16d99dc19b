#include "check/workloads.hpp"

#include <string>
#include <vector>

using mcsym::mcapi::Cond;
using mcsym::mcapi::EndpointRef;
using mcsym::mcapi::Program;
using mcsym::mcapi::Rel;
using mcsym::mcapi::ThreadBuilder;

namespace mcsym::check::workloads {

Program figure1() {
  Program p;
  auto t0 = p.add_thread("t0");
  auto t1 = p.add_thread("t1");
  auto t2 = p.add_thread("t2");
  const EndpointRef e0 = p.add_endpoint("e0", t0.ref());
  const EndpointRef e1 = p.add_endpoint("e1", t1.ref());
  const EndpointRef e2 = p.add_endpoint("e2", t2.ref());

  t0.recv(e0, "A").recv(e0, "B");
  t1.recv(e1, "C").send(e1, e0, kPayloadX);
  t2.send(e2, e0, kPayloadY).send(e2, e1, kPayloadZ);

  p.finalize();
  return p;
}

Figure1WithProperty figure1_with_property() {
  Figure1WithProperty out;
  Program& p = out.program;
  auto t0 = p.add_thread("t0");
  auto t1 = p.add_thread("t1");
  auto t2 = p.add_thread("t2");
  const EndpointRef e0 = p.add_endpoint("e0", t0.ref());
  const EndpointRef e1 = p.add_endpoint("e1", t1.ref());
  const EndpointRef e2 = p.add_endpoint("e2", t2.ref());

  // In-program form of "the first message t0 receives is Y" — exactly what a
  // developer who never considered network delays would assert. The Figure 4b
  // pairing (A = X) falsifies it.
  t0.recv(e0, "A").recv(e0, "B").assert_that(
      Cond{t0.v("A"), Rel::kEq, ThreadBuilder::c(kPayloadY)});
  t1.recv(e1, "C").send(e1, e0, kPayloadX);
  t2.send(e2, e0, kPayloadY).send(e2, e1, kPayloadZ);

  p.finalize();
  out.properties.push_back(encode::make_property(
      "t0.A==Y", encode::Operand::final_var(t0.ref(), "A"), Rel::kEq,
      encode::Operand::constant(kPayloadY)));
  return out;
}

Program message_race(std::uint32_t senders, std::uint32_t msgs_each) {
  Program p;
  auto rx = p.add_thread("rx");
  const EndpointRef sink = p.add_endpoint("sink", rx.ref());
  for (std::uint32_t s = 0; s < senders; ++s) {
    auto tx = p.add_thread("tx" + std::to_string(s));
    const EndpointRef out = p.add_endpoint("out" + std::to_string(s), tx.ref());
    for (std::uint32_t k = 0; k < msgs_each; ++k) {
      // Payloads unique per message: sender s, sequence k.
      tx.send(out, sink, 100 * (s + 1) + k);
    }
  }
  for (std::uint32_t m = 0; m < senders * msgs_each; ++m) {
    rx.recv(sink, std::string("m").append(std::to_string(m)));
  }
  p.finalize();
  return p;
}

Program pipeline(std::uint32_t stages, std::uint32_t items) {
  Program p;
  std::vector<ThreadBuilder> ts;
  std::vector<EndpointRef> eps;
  ts.reserve(stages);
  for (std::uint32_t i = 0; i < stages; ++i) {
    ts.push_back(p.add_thread("st" + std::to_string(i)));
    eps.push_back(p.add_endpoint("ep" + std::to_string(i), ts.back().ref()));
  }
  // Stage 0 injects item values 0..items-1.
  for (std::uint32_t k = 0; k < items; ++k) {
    ts[0].send(eps[0], eps[1 % stages], static_cast<std::int64_t>(k));
  }
  // Stages 1..n-1: receive, add one, forward (last stage checks instead).
  for (std::uint32_t i = 1; i < stages; ++i) {
    for (std::uint32_t k = 0; k < items; ++k) {
      const std::string x = std::string("x").append(std::to_string(k));
      ts[i].recv(eps[i], x);
      if (i + 1 < stages) {
        ts[i].send(eps[i], eps[i + 1], ts[i].v(x, 1));
      } else {
        // Per-channel FIFO makes the pipeline deterministic end to end.
        ts[i].assert_that(Cond{ts[i].v(x), Rel::kEq,
                               ThreadBuilder::c(static_cast<std::int64_t>(k) +
                                                static_cast<std::int64_t>(i) - 1)});
      }
    }
  }
  p.finalize();
  return p;
}

namespace {

Program scatter_gather_base(std::uint32_t workers, bool naive_assert) {
  Program p;
  auto master = p.add_thread("master");
  const EndpointRef gather = p.add_endpoint("gather", master.ref());
  const EndpointRef m_out = p.add_endpoint("m_out", master.ref());
  std::vector<ThreadBuilder> ws;
  std::vector<EndpointRef> w_in;
  ws.reserve(workers);
  for (std::uint32_t w = 0; w < workers; ++w) {
    ws.push_back(p.add_thread(std::string("w").append(std::to_string(w))));
    w_in.push_back(p.add_endpoint("w_in" + std::to_string(w), ws.back().ref()));
  }
  for (std::uint32_t w = 0; w < workers; ++w) {
    master.send(m_out, w_in[w], 7);
    ws[w].recv(w_in[w], "x");
    ws[w].assign("y", ws[w].v("x", 1000 * (static_cast<std::int64_t>(w) + 1)));
    ws[w].send(w_in[w], gather, ws[w].v("y"));
  }
  for (std::uint32_t w = 0; w < workers; ++w) {
    master.recv(gather, std::string("r").append(std::to_string(w)));
  }
  if (naive_assert) {
    // The naive belief that results arrive in scatter order: r0 came from w0.
    master.assert_that(Cond{master.v("r0"), Rel::kEq, ThreadBuilder::c(1007)});
  }
  p.finalize();
  return p;
}

}  // namespace

Program scatter_gather(std::uint32_t workers) {
  return scatter_gather_base(workers, /*naive_assert=*/true);
}

Program scatter_gather_safe(std::uint32_t workers) {
  return scatter_gather_base(workers, /*naive_assert=*/false);
}

Program token_fanout(std::uint32_t racers) {
  Program p;
  auto sink = p.add_thread("sink");
  const EndpointRef sink_in = p.add_endpoint("sink_in", sink.ref());
  std::vector<ThreadBuilder> rs;
  std::vector<EndpointRef> gate;
  std::vector<EndpointRef> out;
  rs.reserve(racers);
  for (std::uint32_t r = 0; r < racers; ++r) {
    rs.push_back(p.add_thread(std::string("r").append(std::to_string(r))));
    gate.push_back(p.add_endpoint(std::string("gate").append(std::to_string(r)),
                                  rs.back().ref()));
    out.push_back(p.add_endpoint("out" + std::to_string(r), rs.back().ref()));
  }
  auto master = p.add_thread("master");
  const EndpointRef m_out = p.add_endpoint("m_out", master.ref());
  master.send(m_out, gate[0], 1);
  for (std::uint32_t r = 0; r < racers; ++r) {
    rs[r].recv(gate[r], "t");
    // Forward the token FIRST so downstream racers come online while this
    // payload is still in flight — maximizing the live race frontier.
    if (r + 1 < racers) rs[r].send(out[r], gate[r + 1], rs[r].v("t", 1));
    rs[r].send(out[r], sink_in, 100 + static_cast<std::int64_t>(r));
  }
  for (std::uint32_t r = 0; r < racers; ++r) {
    sink.recv(sink_in, std::string("p").append(std::to_string(r)));
  }
  p.finalize();
  return p;
}

Program nonblocking_gather(std::uint32_t senders) {
  Program p;
  auto rx = p.add_thread("rx");
  const EndpointRef in = p.add_endpoint("nb_in", rx.ref());
  for (std::uint32_t s = 0; s < senders; ++s) {
    auto tx = p.add_thread("tx" + std::to_string(s));
    const EndpointRef out = p.add_endpoint("nb_out" + std::to_string(s), tx.ref());
    tx.send(out, in, 500 + s);
  }
  for (std::uint32_t s = 0; s < senders; ++s) {
    rx.recv_nb(in, std::string("x").append(std::to_string(s)), s);
  }
  for (std::uint32_t s = 0; s < senders; ++s) {
    rx.wait(s);
  }
  // "The first posted receive got sender 0's message" — racy, violable.
  rx.assert_that(Cond{rx.v("x0"), Rel::kEq, ThreadBuilder::c(500)});
  p.finalize();
  return p;
}

Program ring(std::uint32_t threads) {
  Program p;
  std::vector<ThreadBuilder> ts;
  std::vector<EndpointRef> eps;
  ts.reserve(threads);
  for (std::uint32_t i = 0; i < threads; ++i) {
    ts.push_back(p.add_thread(std::string("r").append(std::to_string(i))));
    eps.push_back(p.add_endpoint("rep" + std::to_string(i), ts.back().ref()));
  }
  ts[0].send(eps[0], eps[1 % threads], 0);
  for (std::uint32_t i = 1; i < threads; ++i) {
    ts[i].recv(eps[i], "x");
    ts[i].send(eps[i], eps[(i + 1) % threads], ts[i].v("x", 1));
  }
  ts[0].recv(eps[0], "token");
  ts[0].assert_that(Cond{ts[0].v("token"), Rel::kEq,
                         ThreadBuilder::c(static_cast<std::int64_t>(threads) - 1)});
  p.finalize();
  return p;
}

Program relay_race(std::uint32_t pairs) {
  Program p;
  auto t0 = p.add_thread("t0");
  const EndpointRef e0 = p.add_endpoint("e0", t0.ref());
  for (std::uint32_t i = 0; i < pairs; ++i) {
    auto origin = p.add_thread("orig" + std::to_string(i));
    auto relay = p.add_thread("relay" + std::to_string(i));
    const EndpointRef oe = p.add_endpoint("oe" + std::to_string(i), origin.ref());
    const EndpointRef re = p.add_endpoint("re" + std::to_string(i), relay.ref());
    // Y_i = 1000+i straight to the collector, Z_i = 2000+i to the relay,
    // which forwards X_i = 3000+i. Y_i is always issued before X_i.
    origin.send(oe, e0, 1000 + i).send(oe, re, 2000 + i);
    relay.recv(re, "z").send(re, e0, 3000 + i);
  }
  for (std::uint32_t m = 0; m < 2 * pairs; ++m) {
    t0.recv(e0, std::string("m").append(std::to_string(m)));
  }
  p.finalize();
  return p;
}

Program nonblocking_window() {
  Program p;
  auto rx = p.add_thread("rx");
  auto trig = p.add_thread("trig");
  auto early = p.add_thread("early");
  const EndpointRef er = p.add_endpoint("wep", rx.ref());
  const EndpointRef et = p.add_endpoint("wtrig", trig.ref());
  const EndpointRef ee = p.add_endpoint("wearly", early.ref());

  // rx posts the receive, *then* pokes the helper, then waits: the helper's
  // message is causally after the issue yet inside the wait-anchored window.
  rx.recv_nb(er, "x", 0).send(er, et, 1).wait(0).recv(er, "y");
  trig.recv(et, "go").send(et, er, 99);
  early.send(ee, er, 11);

  p.finalize();
  return p;
}

Program polling_race(std::uint32_t senders) {
  Program p;
  auto rx = p.add_thread("rx");
  const EndpointRef er = p.add_endpoint("pr_in", rx.ref());
  std::vector<ThreadBuilder> txs;
  std::vector<EndpointRef> eps;
  for (std::uint32_t i = 0; i < senders; ++i) {
    txs.push_back(p.add_thread("ps" + std::to_string(i)));
    eps.push_back(p.add_endpoint("pr_s" + std::to_string(i), txs.back().ref()));
  }
  // One non-blocking receive, one completion poll, then the wait; the rest
  // of the messages drain through blocking receives. The poll's outcome is
  // pure delivery-timing nondeterminism.
  rx.recv_nb(er, "first", 0).test_poll(0, "done").wait(0);
  for (std::uint32_t i = 1; i < senders; ++i) {
    rx.recv(er, std::string("m").append(std::to_string(i)));
  }
  for (std::uint32_t i = 0; i < senders; ++i) {
    txs[i].send(eps[i], er, 100 + static_cast<std::int64_t>(i));
  }
  p.finalize();
  return p;
}

Program poll_window() {
  Program p;
  auto rx = p.add_thread("rx");
  auto late = p.add_thread("late");
  auto early = p.add_thread("early");
  const EndpointRef er = p.add_endpoint("pw_in", rx.ref());
  const EndpointRef eg = p.add_endpoint("pw_gate", late.ref());
  const EndpointRef el = p.add_endpoint("pw_late", late.ref());
  const EndpointRef ee = p.add_endpoint("pw_early", early.ref());

  // rx posts the receive, polls it once, tells the late sender the poll is
  // done, then waits; a second blocking receive drains the other message.
  // The late message is causally after the poll, so a trace whose poll saw
  // completion can only have matched the early send (1 matching), while a
  // poll that saw "pending" leaves both sends in the window (2 matchings).
  rx.recv_nb(er, "A", 0)
      .test_poll(0, "flag")
      .send(er, eg, 1)
      .wait(0)
      .recv(er, "B");
  late.recv(eg, "go").send(el, er, 99);
  early.send(ee, er, 11);

  p.finalize();
  return p;
}

Program select_server(std::uint32_t senders_per_side) {
  Program p;
  auto rx = p.add_thread("rx");
  const EndpointRef ea = p.add_endpoint("sel_a", rx.ref());
  const EndpointRef eb = p.add_endpoint("sel_b", rx.ref());

  std::vector<ThreadBuilder> txs;
  for (std::uint32_t i = 0; i < senders_per_side; ++i) {
    auto ta = p.add_thread("sa" + std::to_string(i));
    const EndpointRef oa = p.add_endpoint("sel_oa" + std::to_string(i), ta.ref());
    ta.send(oa, ea, 100 + static_cast<std::int64_t>(i));
    auto tb = p.add_thread("sb" + std::to_string(i));
    const EndpointRef ob = p.add_endpoint("sel_ob" + std::to_string(i), tb.ref());
    tb.send(ob, eb, 200 + static_cast<std::int64_t>(i));
  }

  // Select over one request per endpoint, branch on the winner, wait the
  // loser, then drain the remaining racing messages with blocking receives.
  rx.recv_nb(ea, "A", 0)
      .recv_nb(eb, "B", 1)
      .wait_any({0, 1}, "idx")
      .jump_if(Cond{rx.v("idx"), Rel::kEq, ThreadBuilder::c(0)}, "a_won")
      .wait(0)
      .jump("drain")
      .label("a_won")
      .wait(1)
      .label("drain");
  for (std::uint32_t i = 1; i < senders_per_side; ++i) {
    rx.recv(ea, "da" + std::to_string(i));
    rx.recv(eb, "db" + std::to_string(i));
  }
  p.finalize();
  return p;
}

Program reversed_waits() {
  Program p;
  auto rx = p.add_thread("rx");
  auto helper = p.add_thread("helper");
  auto s1 = p.add_thread("s1");
  auto s2 = p.add_thread("s2");
  const EndpointRef er = p.add_endpoint("rw_in", rx.ref());
  const EndpointRef eh = p.add_endpoint("rw_help", helper.ref());
  const EndpointRef e1 = p.add_endpoint("rw_s1", s1.ref());
  const EndpointRef e2 = p.add_endpoint("rw_s2", s2.ref());

  // wait(1) completing implies BOTH requests are bound (binding is in issue
  // order), so the helper's 99 — triggered after wait(1) — can match neither.
  rx.recv_nb(er, "a", 0)
      .recv_nb(er, "b", 1)
      .wait(1)
      .send(er, eh, 1)
      .wait(0);
  helper.recv(eh, "go").send(eh, er, 99);
  s1.send(e1, er, 11);
  s2.send(e2, er, 22);

  p.finalize();
  return p;
}

Program branchy_race() {
  Program p;
  auto t0 = p.add_thread("t0");
  auto t1 = p.add_thread("t1");
  auto t2 = p.add_thread("t2");
  const EndpointRef e0 = p.add_endpoint("be0", t0.ref());
  const EndpointRef e1 = p.add_endpoint("be1", t1.ref());
  const EndpointRef e2 = p.add_endpoint("be2", t2.ref());

  // t0's control flow depends on which racing message arrives first; the
  // symbolic model must follow the traced outcome (PEvents pins the branch).
  t0.recv(e0, "a")
      .jump_if(Cond{t0.v("a"), Rel::kEq, ThreadBuilder::c(1)}, "got_one")
      .assign("r", ThreadBuilder::c(100))
      .jump("done")
      .label("got_one")
      .assign("r", ThreadBuilder::c(200))
      .label("done")
      .recv(e0, "b")
      .assert_that(Cond{t0.v("r"), Rel::kEq, ThreadBuilder::c(100)});
  t1.send(e1, e0, 1);
  t2.send(e2, e0, 2);

  p.finalize();
  return p;
}

Program select_server_loop(std::uint32_t clients) {
  Program p;
  auto rx = p.add_thread("rx");
  const EndpointRef ea = p.add_endpoint("ssl_a", rx.ref());
  const EndpointRef eb = p.add_endpoint("ssl_b", rx.ref());
  for (std::uint32_t i = 0; i < clients; ++i) {
    auto ca = p.add_thread("ca" + std::to_string(i));
    const EndpointRef oa = p.add_endpoint("ssl_oa" + std::to_string(i), ca.ref());
    ca.send(oa, ea, 100 + static_cast<std::int64_t>(i));
    auto cb = p.add_thread("cb" + std::to_string(i));
    const EndpointRef ob = p.add_endpoint("ssl_ob" + std::to_string(i), cb.ref());
    cb.send(ob, eb, 200 + static_cast<std::int64_t>(i));
  }

  // One service round per client pair: select over one request per
  // endpoint, wait the loser so both slots are consumed before the next
  // round reuses them, then advance the round counter and loop.
  rx.assign("n", ThreadBuilder::c(0))
      .label("round")
      .recv_nb(ea, "A", 0)
      .recv_nb(eb, "B", 1)
      .wait_any({0, 1}, "idx")
      .jump_if(Cond{rx.v("idx"), Rel::kEq, ThreadBuilder::c(0)}, "a_won")
      .wait(0)
      .jump("next")
      .label("a_won")
      .wait(1)
      .label("next")
      .assign("n", rx.v("n", 1))
      .jump_if(Cond{rx.v("n"), Rel::kLt,
                    ThreadBuilder::c(static_cast<std::int64_t>(clients))},
               "round");
  p.finalize();
  return p;
}

Program request_stream(std::uint32_t n) {
  Program p;
  auto prod = p.add_thread("prod");
  auto relay = p.add_thread("relay");
  auto cons = p.add_thread("cons");
  const EndpointRef pe = p.add_endpoint("rs_prod", prod.ref());
  const EndpointRef re = p.add_endpoint("rs_relay", relay.ref());
  const EndpointRef ce = p.add_endpoint("rs_cons", cons.ref());
  const auto bound = ThreadBuilder::c(static_cast<std::int64_t>(n));

  prod.assign("i", ThreadBuilder::c(0))
      .label("loop")
      .send(pe, re, prod.v("i", 100))
      .assign("i", prod.v("i", 1))
      .jump_if(Cond{prod.v("i"), Rel::kLt, bound}, "loop");

  relay.assign("j", ThreadBuilder::c(0))
      .label("loop")
      .recv(re, "x")
      .send(re, ce, relay.v("x", 1))
      .assign("j", relay.v("j", 1))
      .jump_if(Cond{relay.v("j"), Rel::kLt, bound}, "loop");

  // Per-channel FIFO pins the stream order, so the last drained value is
  // determined: (n-1) + 100 + 1.
  cons.assign("k", ThreadBuilder::c(0))
      .label("loop")
      .recv(ce, "y")
      .assign("k", cons.v("k", 1))
      .jump_if(Cond{cons.v("k"), Rel::kLt, bound}, "loop")
      .assert_that(Cond{cons.v("y"), Rel::kEq,
                        ThreadBuilder::c(static_cast<std::int64_t>(n) + 100)});

  p.finalize();
  return p;
}

Program livelock_pair() {
  Program p;
  auto ta = p.add_thread("spin_a");
  auto tb = p.add_thread("spin_b");
  const EndpointRef ea = p.add_endpoint("ll_a", ta.ref());
  const EndpointRef eb = p.add_endpoint("ll_b", tb.ref());

  // The request can never complete (nothing is ever sent), so the poll
  // stores 0 forever and the jump_if re-enters the same state.
  ta.recv_nb(ea, "x", 0)
      .label("spin")
      .test_poll(0, "f")
      .jump_if(Cond{ta.v("f"), Rel::kEq, ThreadBuilder::c(0)}, "spin")
      .wait(0);
  tb.recv_nb(eb, "x", 0)
      .label("spin")
      .test_poll(0, "f")
      .jump_if(Cond{tb.v("f"), Rel::kEq, ThreadBuilder::c(0)}, "spin")
      .wait(0);

  p.finalize();
  return p;
}

}  // namespace mcsym::check::workloads
