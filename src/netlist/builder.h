// Ergonomic gate-level construction API on top of Netlist.
//
// All methods return the freshly created output net. Wide AND/OR/NAND/NOR
// requests are decomposed into balanced trees of cells within the library's
// maximum arity. Name scoping (push_scope/pop_scope) gives hierarchical
// names ("ex.alu.n42") in the flat netlist.
#pragma once

#include <initializer_list>
#include <span>

#include "netlist/netlist.h"

namespace desyn::nl {

class Builder {
 public:
  explicit Builder(Netlist& nl) : nl_(nl) {}

  Netlist& netlist() { return nl_; }

  // ---- naming scopes ------------------------------------------------------
  void push_scope(std::string_view s);
  void pop_scope();
  /// RAII scope helper.
  class Scoped {
   public:
    Scoped(Builder& b, std::string_view s) : b_(b) { b_.push_scope(s); }
    ~Scoped() { b_.pop_scope(); }
    Scoped(const Scoped&) = delete;
    Scoped& operator=(const Scoped&) = delete;

   private:
    Builder& b_;
  };
  /// Scoped name: prefix + given name.
  std::string scoped(std::string_view name) const;

  // ---- ports --------------------------------------------------------------
  NetId input(std::string_view name) { return nl_.add_input(scoped(name)); }
  void output(NetId net) { nl_.mark_output(net); }
  NetId net(std::string_view name = "") {
    return nl_.add_net(name.empty() ? "" : scoped(name));
  }

  // ---- combinational cells ------------------------------------------------
  NetId lo();
  NetId hi();
  NetId buf(NetId a, std::string_view name = "");
  NetId inv(NetId a, std::string_view name = "");
  NetId delay(NetId a, std::string_view name = "");
  NetId and_(std::span<const NetId> ins, std::string_view name = "");
  NetId or_(std::span<const NetId> ins, std::string_view name = "");
  NetId nand_(std::span<const NetId> ins, std::string_view name = "");
  NetId nor_(std::span<const NetId> ins, std::string_view name = "");
  NetId and_(std::initializer_list<NetId> ins, std::string_view name = "") {
    return and_(std::span(ins.begin(), ins.size()), name);
  }
  NetId or_(std::initializer_list<NetId> ins, std::string_view name = "") {
    return or_(std::span(ins.begin(), ins.size()), name);
  }
  NetId nand_(std::initializer_list<NetId> ins, std::string_view name = "") {
    return nand_(std::span(ins.begin(), ins.size()), name);
  }
  NetId nor_(std::initializer_list<NetId> ins, std::string_view name = "") {
    return nor_(std::span(ins.begin(), ins.size()), name);
  }
  NetId xor_(NetId a, NetId b, std::string_view name = "");
  NetId xnor_(NetId a, NetId b, std::string_view name = "");
  /// y = s ? b : a
  NetId mux2(NetId a, NetId b, NetId s, std::string_view name = "");
  NetId aoi21(NetId a, NetId b, NetId c, std::string_view name = "");
  NetId oai21(NetId a, NetId b, NetId c, std::string_view name = "");

  // ---- asynchronous-control cells ----------------------------------------
  NetId celem(std::span<const NetId> ins, cell::V init,
              std::string_view name = "");
  NetId celem(std::initializer_list<NetId> ins, cell::V init,
              std::string_view name = "") {
    return celem(std::span(ins.begin(), ins.size()), init, name);
  }
  NetId gc(NetId set, NetId reset, cell::V init, std::string_view name = "");

  // ---- storage -------------------------------------------------------------
  NetId latch(NetId d, NetId en, cell::V init, std::string_view name = "");
  NetId latchn(NetId d, NetId en, cell::V init, std::string_view name = "");
  NetId dff(NetId d, NetId ck, cell::V init, std::string_view name = "");

  // ---- memory macros -------------------------------------------------------
  /// Combinational ROM: 2^addr_bits words of `width` bits (payload-backed).
  std::vector<NetId> rom(std::span<const NetId> addr, int width,
                         std::vector<uint64_t> contents,
                         std::string_view name);
  /// RAM with async read and sync write (write on CK rising edge when WE=1).
  std::vector<NetId> ram(NetId ck, NetId we, std::span<const NetId> waddr,
                         std::span<const NetId> wdata,
                         std::span<const NetId> raddr, int width,
                         std::string_view name,
                         std::vector<uint64_t> init_contents = {});

 private:
  NetId unary(cell::Kind k, NetId a, std::string_view name);
  NetId tree(cell::Kind outer, cell::Kind inner, std::span<const NetId> ins,
             std::string_view name);
  NetId cell1(cell::Kind k, InPins ins, std::string_view name,
              cell::V init = cell::V::V0);

  Netlist& nl_;
  std::string prefix_;
  NetId lo_ = NetId::invalid();
  NetId hi_ = NetId::invalid();
};

}  // namespace desyn::nl
