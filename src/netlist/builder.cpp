#include "netlist/builder.h"

#include <algorithm>

namespace desyn::nl {

void Builder::push_scope(std::string_view s) {
  prefix_ += std::string(s);
  prefix_ += '.';
}

void Builder::pop_scope() {
  DESYN_ASSERT(!prefix_.empty());
  size_t pos = prefix_.rfind('.', prefix_.size() - 2);
  prefix_.resize(pos == std::string::npos ? 0 : pos + 1);
}

std::string Builder::scoped(std::string_view name) const {
  return prefix_ + std::string(name);
}

NetId Builder::cell1(cell::Kind k, InPins ins, std::string_view name,
                     cell::V init) {
  // Named constructions name both the net and the cell (nets and cells live
  // in separate namespaces); bank grouping keys off the cell name.
  NetId out = nl_.add_net(name.empty() ? "" : scoped(name));
  nl_.add_cell(k, name.empty() ? "" : scoped(name), std::move(ins), {out},
               init);
  return out;
}

NetId Builder::lo() {
  if (!lo_.valid()) lo_ = cell1(cell::Kind::TieLo, {}, "const0");
  return lo_;
}

NetId Builder::hi() {
  if (!hi_.valid()) hi_ = cell1(cell::Kind::TieHi, {}, "const1");
  return hi_;
}

NetId Builder::unary(cell::Kind k, NetId a, std::string_view name) {
  return cell1(k, {a}, name);
}

NetId Builder::buf(NetId a, std::string_view name) {
  return unary(cell::Kind::Buf, a, name);
}
NetId Builder::inv(NetId a, std::string_view name) {
  return unary(cell::Kind::Inv, a, name);
}
NetId Builder::delay(NetId a, std::string_view name) {
  return unary(cell::Kind::Delay, a, name);
}

NetId Builder::tree(cell::Kind outer, cell::Kind inner,
                    std::span<const NetId> ins, std::string_view name) {
  DESYN_ASSERT(!ins.empty());
  if (ins.size() == 1) {
    // Single input: reduce to buffer/inverter semantics.
    bool inverting = outer == cell::Kind::Nand || outer == cell::Kind::Nor;
    return inverting ? inv(ins[0], name) : buf(ins[0], name);
  }
  std::vector<NetId> level(ins.begin(), ins.end());
  // Reduce with the non-inverting inner kind until one cell remains, then
  // apply the requested outer kind at the root.
  while (static_cast<int>(level.size()) > cell::kMaxArity) {
    std::vector<NetId> next;
    for (size_t i = 0; i < level.size(); i += cell::kMaxArity) {
      size_t n = std::min<size_t>(cell::kMaxArity, level.size() - i);
      if (n == 1) {
        next.push_back(level[i]);
      } else {
        next.push_back(cell1(
            inner, InPins(std::span<const NetId>(level).subspan(i, n)), ""));
      }
    }
    level = std::move(next);
  }
  return cell1(outer, InPins(level), name);
}

NetId Builder::and_(std::span<const NetId> ins, std::string_view name) {
  return tree(cell::Kind::And, cell::Kind::And, ins, name);
}
NetId Builder::or_(std::span<const NetId> ins, std::string_view name) {
  return tree(cell::Kind::Or, cell::Kind::Or, ins, name);
}
NetId Builder::nand_(std::span<const NetId> ins, std::string_view name) {
  return tree(cell::Kind::Nand, cell::Kind::And, ins, name);
}
NetId Builder::nor_(std::span<const NetId> ins, std::string_view name) {
  return tree(cell::Kind::Nor, cell::Kind::Or, ins, name);
}

NetId Builder::xor_(NetId a, NetId b, std::string_view name) {
  return cell1(cell::Kind::Xor, {a, b}, name);
}
NetId Builder::xnor_(NetId a, NetId b, std::string_view name) {
  return cell1(cell::Kind::Xnor, {a, b}, name);
}
NetId Builder::mux2(NetId a, NetId b, NetId s, std::string_view name) {
  return cell1(cell::Kind::Mux2, {a, b, s}, name);
}
NetId Builder::aoi21(NetId a, NetId b, NetId c, std::string_view name) {
  return cell1(cell::Kind::Aoi21, {a, b, c}, name);
}
NetId Builder::oai21(NetId a, NetId b, NetId c, std::string_view name) {
  return cell1(cell::Kind::Oai21, {a, b, c}, name);
}

NetId Builder::celem(std::span<const NetId> ins, cell::V init,
                     std::string_view name) {
  DESYN_ASSERT(ins.size() >= 2 && static_cast<int>(ins.size()) <= cell::kMaxArity,
               "C-element arity out of range");
  return cell1(cell::Kind::CElem, InPins(ins), name, init);
}

NetId Builder::gc(NetId set, NetId reset, cell::V init, std::string_view name) {
  return cell1(cell::Kind::Gc, {set, reset}, name, init);
}

NetId Builder::latch(NetId d, NetId en, cell::V init, std::string_view name) {
  return cell1(cell::Kind::Latch, {d, en}, name, init);
}
NetId Builder::latchn(NetId d, NetId en, cell::V init, std::string_view name) {
  return cell1(cell::Kind::LatchN, {d, en}, name, init);
}
NetId Builder::dff(NetId d, NetId ck, cell::V init, std::string_view name) {
  return cell1(cell::Kind::Dff, {d, ck}, name, init);
}

std::vector<NetId> Builder::rom(std::span<const NetId> addr, int width,
                                std::vector<uint64_t> contents,
                                std::string_view name) {
  DESYN_ASSERT(width >= 1 && width <= 64);
  DESYN_ASSERT(contents.size() <= (1ull << addr.size()));
  contents.resize(1ull << addr.size(), 0);
  int32_t pl = nl_.add_payload(std::move(contents));
  std::vector<NetId> outs;
  for (int i = 0; i < width; ++i) {
    outs.push_back(nl_.add_net(scoped(cat(name, "_d", i))));
  }
  nl_.add_cell(cell::Kind::Rom, scoped(name), InPins(addr), OutPins(outs),
               cell::V::V0, pl, static_cast<uint16_t>(addr.size()),
               static_cast<uint16_t>(width));
  return outs;
}

std::vector<NetId> Builder::ram(NetId ck, NetId we,
                                std::span<const NetId> waddr,
                                std::span<const NetId> wdata,
                                std::span<const NetId> raddr, int width,
                                std::string_view name,
                                std::vector<uint64_t> init_contents) {
  DESYN_ASSERT(width >= 1 && width <= 64);
  DESYN_ASSERT(waddr.size() == raddr.size());
  DESYN_ASSERT(static_cast<int>(wdata.size()) == width);
  init_contents.resize(1ull << waddr.size(), 0);
  int32_t pl = nl_.add_payload(std::move(init_contents));
  std::vector<NetId> ins;
  ins.push_back(ck);
  ins.push_back(we);
  ins.insert(ins.end(), waddr.begin(), waddr.end());
  ins.insert(ins.end(), wdata.begin(), wdata.end());
  ins.insert(ins.end(), raddr.begin(), raddr.end());
  std::vector<NetId> outs;
  for (int i = 0; i < width; ++i) {
    outs.push_back(nl_.add_net(scoped(cat(name, "_rd", i))));
  }
  nl_.add_cell(cell::Kind::Ram, scoped(name), InPins(ins), OutPins(outs),
               cell::V::V0, pl, static_cast<uint16_t>(waddr.size()),
               static_cast<uint16_t>(width));
  return outs;
}

}  // namespace desyn::nl
