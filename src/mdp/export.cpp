#include "mdp/export.hpp"

#include <ostream>

#include "support/check.hpp"
#include "support/csv.hpp"

namespace mdp {

void export_tra(const Mdp& mdp, std::ostream& out) {
  out << "mdp\n";
  for (StateId s = 0; s < mdp.num_states(); ++s) {
    std::uint32_t offset = 0;
    for (ActionId a = mdp.action_begin(s); a < mdp.action_end(s);
         ++a, ++offset) {
      for (std::uint32_t i = mdp.transition_begin(a);
           i < mdp.transition_end(a); ++i) {
        out << s << ' ' << offset << ' ' << mdp.target(i) << ' '
            << support::format_double(mdp.prob(i), 17) << '\n';
      }
    }
  }
}

void export_lab(const Mdp& mdp, std::ostream& out) {
  out << "#DECLARATION\ninit\n#END\n";
  out << mdp.initial_state() << " init\n";
}

void export_rew(const Mdp& mdp, double beta, std::ostream& out) {
  for (StateId s = 0; s < mdp.num_states(); ++s) {
    std::uint32_t offset = 0;
    for (ActionId a = mdp.action_begin(s); a < mdp.action_end(s);
         ++a, ++offset) {
      for (std::uint32_t i = mdp.transition_begin(a);
           i < mdp.transition_end(a); ++i) {
        const RewardCounts c = mdp.counts(i);
        const double reward = c.adversary - beta * (c.adversary + c.honest);
        if (reward == 0.0) continue;  // sparse reward files
        out << s << ' ' << offset << ' ' << mdp.target(i) << ' '
            << support::format_double(reward, 17) << '\n';
      }
    }
  }
}

void export_dot(const Mdp& mdp, std::ostream& out, const DotOptions& options) {
  SM_REQUIRE(mdp.num_states() <= options.max_states,
             "model too large for DOT output (", mdp.num_states(), " > ",
             options.max_states, " states)");
  const auto label = [&](StateId s) {
    return options.labeler ? options.labeler(s) : std::to_string(s);
  };

  out << "digraph mdp {\n  rankdir=LR;\n  node [shape=box];\n";
  for (StateId s = 0; s < mdp.num_states(); ++s) {
    out << "  s" << s << " [label=\""
        << support::CsvWriter::escape(label(s)) << '"';
    if (s == mdp.initial_state()) out << ", peripheries=2";
    out << "];\n";
  }
  // Ends an edge's label with transition i's counters, if any.
  const auto close_edge = [&](std::uint32_t i) {
    const RewardCounts c = mdp.counts(i);
    if (c.adversary || c.honest) {
      out << " +" << c.adversary << "a/+" << c.honest << "h";
    }
    out << "\"];\n";
  };
  for (StateId s = 0; s < mdp.num_states(); ++s) {
    for (ActionId a = mdp.action_begin(s); a < mdp.action_end(s); ++a) {
      const std::uint32_t begin = mdp.transition_begin(a);
      const std::uint32_t end = mdp.transition_end(a);
      if (end - begin == 1 && mdp.prob(begin) == 1.0) {
        // Deterministic action: a single labeled edge.
        out << "  s" << s << " -> s" << mdp.target(begin) << " [label=\"a"
            << (a - mdp.action_begin(s));
        close_edge(begin);
        continue;
      }
      // Probabilistic action: a chance node fanning out.
      out << "  a" << a << " [shape=point];\n";
      out << "  s" << s << " -> a" << a << " [label=\"a"
          << (a - mdp.action_begin(s)) << "\"];\n";
      for (std::uint32_t i = begin; i < end; ++i) {
        out << "  a" << a << " -> s" << mdp.target(i) << " [label=\""
            << support::format_double(mdp.prob(i), 4);
        close_edge(i);
      }
    }
  }
  out << "}\n";
}

}  // namespace mdp
