// Tests for the field I/O: VTK structural validity (counts, connectivity
// bounds, data sections) and CSV value round trips, on box and curved
// cylinder meshes.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "io/field_io.hpp"
#include "operators/setup.hpp"
#include "test_paths.hpp"

namespace felis::io {
namespace {

struct IoSetup {
  operators::RankSetup rank;
  RealVec temp;
};

IoSetup make(bool cylinder, int degree) {
  IoSetup s;
  comm::SelfComm comm;
  if (cylinder) {
    mesh::CylinderMeshConfig cfg;
    cfg.nc = 2;
    cfg.nr = 2;
    cfg.nz = 2;
    s.rank = operators::make_rank_setup(mesh::make_cylinder_mesh(cfg), degree,
                                        comm, false);
  } else {
    mesh::BoxMeshConfig cfg;
    cfg.nx = cfg.ny = cfg.nz = 2;
    s.rank = operators::make_rank_setup(mesh::make_box_mesh(cfg), degree, comm,
                                        false);
  }
  s.temp.resize(s.rank.coef.x.size());
  for (usize i = 0; i < s.temp.size(); ++i)
    s.temp[i] = 1.0 - s.rank.coef.z[i] + 0.1 * s.rank.coef.x[i];
  return s;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Vtk, StructureAndCountsAreValid) {
  const IoSetup s = make(true, 3);
  const std::string path = test::scratch_path("felis_test_io.vtk");
  write_vtk(path, s.rank.lmesh, s.rank.space, s.rank.coef, {{"T", &s.temp}});
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  usize points = 0, cells = 0, cell_ints = 0;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string word;
    ls >> word;
    if (word == "POINTS") ls >> points;
    if (word == "CELLS") ls >> cells >> cell_ints;
  }
  const usize npe = static_cast<usize>(s.rank.space.nodes_per_element());
  const usize nelem = static_cast<usize>(s.rank.lmesh.num_elements());
  EXPECT_EQ(points, nelem * npe);
  const int n = s.rank.space.n;
  EXPECT_EQ(cells, nelem * static_cast<usize>((n - 1) * (n - 1) * (n - 1)));
  EXPECT_EQ(cell_ints, cells * 9);
  // Connectivity indices must stay within the point count.
  const std::string body = slurp(path);
  EXPECT_NE(body.find("SCALARS T double 1"), std::string::npos);
  EXPECT_NE(body.find("CELL_TYPES"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Vtk, RejectsWrongFieldSize) {
  const IoSetup s = make(false, 2);
  RealVec bad(3, 0.0);
  EXPECT_THROW(write_vtk("/tmp/felis_bad.vtk", s.rank.lmesh, s.rank.space,
                         s.rank.coef, {{"bad", &bad}}),
               Error);
}

TEST(Csv, ValuesRoundTrip) {
  const IoSetup s = make(false, 2);
  const std::string path = test::scratch_path("felis_test_io.csv");
  write_csv(path, s.rank.coef, {{"T", &s.temp}});
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "x,y,z,T");
  usize rows = 0;
  std::string line;
  real_t max_err = 0;
  while (std::getline(in, line)) {
    std::replace(line.begin(), line.end(), ',', ' ');
    std::istringstream ls(line);
    real_t x, y, z, t;
    ls >> x >> y >> z >> t;
    EXPECT_NEAR(x, s.rank.coef.x[rows], 1e-10);
    max_err = std::max(max_err, std::abs(t - s.temp[rows]));
    ++rows;
  }
  EXPECT_EQ(rows, s.temp.size());
  EXPECT_LT(max_err, 1e-10);
  std::remove(path.c_str());
}

TEST(Csv, MultipleFieldsInStableOrder) {
  const IoSetup s = make(true, 2);
  RealVec other(s.temp.size(), 2.5);
  const std::string path = test::scratch_path("felis_test_io2.csv");
  // std::map orders keys alphabetically: "a" before "t".
  write_csv(path, s.rank.coef, {{"t_field", &s.temp}, {"a_field", &other}});
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "x,y,z,a_field,t_field");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace felis::io
